//! The mutable placement state: cell positions plus per-segment cell lists.
//!
//! Per Section 2.1.2 of the paper, each segment keeps a list of the cells on
//! it ordered by x-coordinate; a placed cell of height `h` appears in the
//! lists of all `h` segments it spans, and an unplaced cell appears in no
//! list. All legalization algorithms read and mutate placements through this
//! structure, which maintains the invariants:
//!
//! * every placed cell is fully contained in one segment per spanned row,
//! * per-segment lists are strictly ordered by x and overlap-free,
//! * even-height cells sit only on rail-compatible rows.
//!
//! Next to its id, each list entry carries the listed cell's footprint:
//! its x-extent `[x0, x1)`, bottom row and height. These lists are the
//! **segment occupancy index**, and every occupancy query answers from
//! them: [`span_is_free`] is one binary search over the extents (a span is
//! free when the first cell ending after its left edge starts at or after
//! its right edge), and region extraction reads each listed cell's
//! footprint without touching per-cell records. [`recompute_gaps`]
//! rebuilds a segment's free gaps from the list; tests compare against
//! it.
//!
//! # Cache-resident layout (DESIGN.md §9)
//!
//! The index is stored for cache residency at 10⁵–10⁶ cells:
//!
//! * **Interleaved coordinate keys.** Each segment's list is three
//!   parallel arrays: `(x0, x1)` extents, `(bottom row, height)` pairs and
//!   `CellId`s. Every `partition_point` probe — [`span_is_free`],
//!   [`cells_intersecting`], [`left_neighbor`], and the search steps
//!   inside [`place`] / [`remove`] / [`shift_batch`] — walks the
//!   contiguous extent array and never dereferences `pos[cell]`, which at
//!   scale is a dependent random load into hundreds of megabytes. `pos[]`
//!   and the design stay the authoritative record; debug builds
//!   cross-check the list copies against them under the `INDEX_CHECK_*`
//!   sampling.
//! * **CSR segment storage.** The three arrays live in flattened [`Csr`]
//!   arenas (one backing allocation, per-segment offset ranges, amortized
//!   reslicing on growth) instead of a `Vec` per segment — no per-segment
//!   heap allocations, no pointer chase per probe, and mutations shift one
//!   contiguous block instead of a heap-scattered `Vec`.
//!
//! # Undo journal (DESIGN.md §11)
//!
//! Every transactional caller — an ECO batch, an escalation ripple chain
//! or repack window, a detailed-placement move, a parallel stripe — undoes
//! through one first-touch journal with nested savepoints. While a
//! savepoint is open, each position mutation records the affected cell's
//! position from before the savepoint the first time the cell is touched
//! at that level; [`rollback_to`] restores exactly those cells, and
//! [`journal`] is the list of cells the level moved, which callers also
//! read as a displacement meter or a diff. Closing an inner savepoint
//! folds its entries into the enclosing level, which then reads as a flat
//! first-touch log from its own opening. With no savepoint open the
//! journal costs one branch per mutation.
//!
//! [`span_is_free`]: PlacementState::span_is_free
//! [`recompute_gaps`]: PlacementState::recompute_gaps
//! [`cells_intersecting`]: PlacementState::cells_intersecting
//! [`left_neighbor`]: PlacementState::left_neighbor
//! [`place`]: PlacementState::place
//! [`remove`]: PlacementState::remove
//! [`shift_batch`]: PlacementState::shift_batch
//! [`rollback_to`]: PlacementState::rollback_to
//! [`journal`]: PlacementState::journal
//! [`Csr`]: crate::csr::Csr

use crate::csr::Csr;
use crate::{CellId, DbError, Design, SegId};
use mrl_geom::{Orient, SitePoint, SiteRect};

/// Number of occupancy-index cross-checks executed in this process. Exists
/// only in debug builds; release builds compile the check (and the counter)
/// out entirely.
#[cfg(debug_assertions)]
static INDEX_CROSS_CHECKS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Number of cross-check *opportunities* (mutations of large segments that
/// were sampled rather than checked unconditionally). Debug builds only.
#[cfg(debug_assertions)]
static INDEX_CHECK_CALLS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Segments with at most this many listed cells are cross-checked on every
/// mutation; larger segments are sampled (1 in [`INDEX_CHECK_SAMPLE`]) so
/// debug-mode runs on 100k–1M-cell designs stay tractable — the
/// recomputation is O(cells-per-segment) and would otherwise turn every
/// mutation quadratic.
#[cfg(debug_assertions)]
const INDEX_CHECK_EXHAUSTIVE_MAX: usize = 64;

/// Sampling period for cross-checks on large segments (debug builds only).
#[cfg(debug_assertions)]
const INDEX_CHECK_SAMPLE: u64 = 64;

/// How many times the debug-only occupancy-index cross-check has run in
/// this process. Always 0 in release builds — the check is strictly gated
/// behind `debug_assertions`, so the hot mutation paths (`place`, `remove`,
/// `shift_batch`) never pay for the O(cells-per-segment) recomputation in
/// optimized kernels. Tests use this to assert the gating holds.
pub fn index_cross_check_count() -> u64 {
    #[cfg(debug_assertions)]
    {
        INDEX_CROSS_CHECKS.load(std::sync::atomic::Ordering::Relaxed)
    }
    #[cfg(not(debug_assertions))]
    {
        0
    }
}

/// First-touch undo journal with nested savepoints (see the module docs).
///
/// `log` holds the entries of every open level back to back, each cell at
/// most once per level; `marks[k]` is where level `k` starts. `stamp[cell]`
/// is the index of the cell's newest entry and may be stale — an entry is
/// trusted only if it still names the cell — so stamps never need
/// clearing. `prev[i]` is the stamp entry `i` replaced, which is how
/// closing a level finds the cells its parent already holds.
#[derive(Clone, Debug, Default)]
struct Journal {
    marks: Vec<u32>,
    log: Vec<(CellId, Option<SitePoint>)>,
    prev: Vec<u32>,
    stamp: Vec<u32>,
}

impl Journal {
    /// Whether `log[at]` exists, is `cell`'s entry, and lies at or after
    /// `from`.
    fn holds(&self, cell: CellId, at: u32, from: u32) -> bool {
        at >= from && self.log.get(at as usize).is_some_and(|&(c, _)| c == cell)
    }

    /// Closes the innermost level, folding its entries into the parent:
    /// cells the parent already holds keep the parent's (older) entry.
    fn close(&mut self) {
        let start = self.marks.pop().expect("a savepoint is open");
        let Some(&parent) = self.marks.last() else {
            self.log.clear();
            self.prev.clear();
            return;
        };
        let mut w = start as usize;
        for r in start as usize..self.log.len() {
            let (cell, prior) = self.log[r];
            let before = self.prev[r];
            if before < start && self.holds(cell, before, parent) {
                self.stamp[cell.index()] = before;
                continue;
            }
            self.log[w] = (cell, prior);
            self.prev[w] = before;
            self.stamp[cell.index()] = w as u32;
            w += 1;
        }
        self.log.truncate(w);
        self.prev.truncate(w);
    }
}

/// An open savepoint on a [`PlacementState`]'s undo journal, returned by
/// [`PlacementState::savepoint`]. Close it with
/// [`rollback_to`](PlacementState::rollback_to) or
/// [`release`](PlacementState::release), innermost first.
#[must_use = "a savepoint must be rolled back or released"]
#[derive(Debug)]
pub struct Savepoint {
    level: usize,
}

/// Current placement of a design's movable cells.
///
/// See the [crate-level example](crate) for typical use.
#[derive(Clone, Debug)]
pub struct PlacementState {
    pos: Vec<Option<SitePoint>>,
    orient: Vec<Orient>,
    /// Interleaved per-segment x-extents `(x0, x1)`, mirrored with
    /// `seg_rows` and `seg_ids` (same segment, same index → same cell).
    seg_xs: Csr<(i32, i32)>,
    /// Per-segment `(bottom row, height)` of each listed cell.
    seg_rows: Csr<(i32, i32)>,
    /// Per-segment ordered cell ids.
    seg_ids: Csr<CellId>,
    journal: Journal,
}

/// A run of one segment's ordered cell list, returned by
/// [`PlacementState::list_intersecting`]: entry `i` of each array
/// describes the same listed cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ListSlice<'a> {
    /// The cell ids.
    pub cells: &'a [CellId],
    /// Each cell's x-extent `(x0, x1)`.
    pub extents: &'a [(i32, i32)],
    /// Each cell's `(bottom row, height)`.
    pub rows: &'a [(i32, i32)],
}

impl PlacementState {
    /// Creates an empty placement (every movable cell unplaced) for a
    /// design.
    pub fn new(design: &Design) -> Self {
        let segments = design.floorplan().segments().len();
        Self {
            pos: vec![None; design.num_cells()],
            orient: vec![Orient::North; design.num_cells()],
            seg_xs: Csr::new(segments),
            seg_rows: Csr::new(segments),
            seg_ids: Csr::new(segments),
            journal: Journal::default(),
        }
    }

    /// Bytes held by the occupancy index — the CSR arenas of the listed
    /// cells' extents, rows and ids plus their offset tables, counted at
    /// capacity. `pos[]`/`orient[]` (the authoritative record) are
    /// excluded.
    pub fn index_bytes(&self) -> usize {
        self.seg_xs.bytes() + self.seg_rows.bytes() + self.seg_ids.bytes()
    }

    /// Bytes of [`index_bytes`](PlacementState::index_bytes) not occupied
    /// by live entries — CSR slack capacity plus dead reslice holes. A
    /// session gauge: high slack on a long-lived session means the arenas
    /// are carrying compaction debt.
    pub fn index_slack_bytes(&self) -> usize {
        self.seg_xs.slack_bytes() + self.seg_rows.slack_bytes() + self.seg_ids.slack_bytes()
    }

    /// True if no listed cell of `seg` overlaps `[x0, x1)` and the span is
    /// not empty — one binary search over the extents: the span is free
    /// when the first cell ending after `x0` starts at or after `x1`. The
    /// span must lie inside the segment; [`is_free`](PlacementState::is_free)
    /// checks that first.
    pub fn span_is_free(&self, seg: SegId, x0: i32, x1: i32) -> bool {
        let xs = self.seg_xs.slice(seg.index());
        x0 < x1
            && xs
                .get(self.list_lower(seg.index(), x0))
                .is_none_or(|&(left, _)| left >= x1)
    }

    /// Rebuilds a segment's sorted maximal free gaps `[x0, x1)` from its
    /// ordered cell list and `pos[]` — the linear reference that
    /// [`span_is_free`](PlacementState::span_is_free) and region extraction
    /// are tested against.
    pub fn recompute_gaps(&self, design: &Design, seg: SegId) -> Vec<(i32, i32)> {
        let s = &design.floorplan().segments()[seg.index()];
        let mut out = Vec::new();
        let mut cursor = s.x;
        for &cell in self.seg_ids.slice(seg.index()) {
            let p = self.pos[cell.index()].expect("listed cell must be placed");
            if p.x > cursor {
                out.push((cursor, p.x));
            }
            cursor = p.x + design.cell(cell).width();
        }
        if cursor < s.right() {
            out.push((cursor, s.right()));
        }
        out
    }

    /// Recomputes a segment's interleaved extent entries from the
    /// authoritative `pos[]` record — the linear-rebuild oracle the
    /// interleaved keys are validated against (property tests, debug
    /// cross-checks).
    pub fn recompute_extents(&self, design: &Design, seg: SegId) -> Vec<(i32, i32)> {
        self.seg_ids
            .slice(seg.index())
            .iter()
            .map(|&cell| {
                let p = self.pos[cell.index()].expect("listed cell must be placed");
                (p.x, p.x + design.cell(cell).width())
            })
            .collect()
    }

    /// Recomputes a segment's `(bottom row, height)` entries from `pos[]`
    /// and the design, as [`recompute_extents`](PlacementState::recompute_extents)
    /// does for the extents.
    fn recompute_rows(&self, design: &Design, seg: SegId) -> Vec<(i32, i32)> {
        self.seg_ids
            .slice(seg.index())
            .iter()
            .map(|&cell| {
                let p = self.pos[cell.index()].expect("listed cell must be placed");
                (p.y, design.cell(cell).height())
            })
            .collect()
    }

    /// The first divergence of `seg`'s list entries from a linear rebuild
    /// from `pos[]` and the design, as text.
    fn check_segment(&self, design: &Design, seg: usize) -> Result<(), String> {
        let id = SegId::from_usize(seg);
        let xs = self.seg_xs.slice(seg);
        let want = self.recompute_extents(design, id);
        if xs != want.as_slice() {
            return Err(format!(
                "segment {seg}: extent keys {xs:?} != recomputed {want:?}"
            ));
        }
        let rows = self.seg_rows.slice(seg);
        let want = self.recompute_rows(design, id);
        if rows != want.as_slice() {
            return Err(format!(
                "segment {seg}: row entries {rows:?} != recomputed {want:?}"
            ));
        }
        Ok(())
    }

    /// Debug-only cross-check of the list entries of `seg` (extents and
    /// rows) against a linear rebuild from `pos[]`. Compiled only under
    /// `debug_assertions`; see [`index_cross_check_count`]. Segments with
    /// more than [`INDEX_CHECK_EXHAUSTIVE_MAX`] cells are sampled (1 in
    /// [`INDEX_CHECK_SAMPLE`] mutations) so million-cell debug runs don't
    /// spend hours re-deriving index state.
    #[cfg(debug_assertions)]
    fn debug_check_index(&self, design: &Design, seg: usize) {
        use std::sync::atomic::Ordering::Relaxed;
        if self.seg_ids.slice(seg).len() > INDEX_CHECK_EXHAUSTIVE_MAX
            && !INDEX_CHECK_CALLS
                .fetch_add(1, Relaxed)
                .is_multiple_of(INDEX_CHECK_SAMPLE)
        {
            return;
        }
        INDEX_CROSS_CHECKS.fetch_add(1, Relaxed);
        if let Err(e) = self.check_segment(design, seg) {
            panic!("occupancy index diverged from pos[]: {e}");
        }
    }

    /// Release builds compile the cross-check out entirely.
    #[cfg(not(debug_assertions))]
    #[inline(always)]
    fn debug_check_index(&self, _design: &Design, _seg: usize) {}

    /// The current position of a cell, if placed.
    pub fn position(&self, cell: CellId) -> Option<SitePoint> {
        self.pos[cell.index()]
    }

    /// The current orientation of a cell (meaningful only when placed).
    pub fn orient(&self, cell: CellId) -> Orient {
        self.orient[cell.index()]
    }

    /// True if the cell is currently placed.
    pub fn is_placed(&self, cell: CellId) -> bool {
        self.pos[cell.index()].is_some()
    }

    /// Number of placed cells.
    pub fn num_placed(&self) -> usize {
        self.pos.iter().filter(|p| p.is_some()).count()
    }

    /// The footprint of a placed cell.
    pub fn rect_of(&self, design: &Design, cell: CellId) -> Option<SiteRect> {
        self.pos[cell.index()].map(|p| {
            let c = design.cell(cell);
            SiteRect::new(p.x, p.y, c.width(), c.height())
        })
    }

    /// The ordered cell list of a segment.
    pub fn segment_cells(&self, seg: SegId) -> &[CellId] {
        self.seg_ids.slice(seg.index())
    }

    /// The interleaved x-extents `(x0, x1)` of a segment's ordered cell
    /// list — entry `i` is the footprint of `segment_cells(seg)[i]`.
    pub fn segment_extents(&self, seg: SegId) -> &[(i32, i32)] {
        self.seg_xs.slice(seg.index())
    }

    /// The `(bottom row, height)` of each cell of a segment's ordered cell
    /// list — entry `i` belongs to `segment_cells(seg)[i]`.
    pub fn segment_rows(&self, seg: SegId) -> &[(i32, i32)] {
        self.seg_rows.slice(seg.index())
    }

    /// The segment id covering `(row, x)`, if any.
    pub fn segment_at(&self, design: &Design, row: i32, x: i32) -> Option<SegId> {
        let fp = design.floorplan();
        let base = fp.row_segment_base(row)?;
        let segs = fp.segments_in_row(row);
        let idx = segs.partition_point(|s| s.right() <= x);
        segs.get(idx)
            .filter(|s| s.x <= x)
            .map(|_| SegId::from_usize(base + idx))
    }

    /// First list index of `seg` whose cell's right edge is > `x0` — the
    /// lower bound of every span query.
    #[inline]
    fn list_lower(&self, seg: usize, x0: i32) -> usize {
        self.seg_xs
            .slice(seg)
            .partition_point(|&(_, right)| right <= x0)
    }

    /// First list index of `seg` whose cell's left edge is >= `x1` — the
    /// upper bound of every span query, and a cell's own slot when `x1` is
    /// its left edge.
    #[inline]
    fn list_upper(&self, seg: usize, x1: i32) -> usize {
        self.seg_xs
            .slice(seg)
            .partition_point(|&(left, _)| left < x1)
    }

    /// Cells of `seg` whose spans intersect the open interval `(x0, x1)`,
    /// as a subslice of the ordered list.
    pub fn cells_intersecting(&self, seg: SegId, x0: i32, x1: i32) -> &[CellId] {
        self.list_intersecting(seg, x0, x1).cells
    }

    /// [`cells_intersecting`](PlacementState::cells_intersecting) together
    /// with the matching [`segment_extents`](PlacementState::segment_extents)
    /// and [`segment_rows`](PlacementState::segment_rows) entries: the
    /// footprint of every listed cell in the window.
    pub fn list_intersecting(&self, seg: SegId, x0: i32, x1: i32) -> ListSlice<'_> {
        let lo = self.list_lower(seg.index(), x0);
        let hi = self.list_upper(seg.index(), x1).max(lo);
        ListSlice {
            cells: &self.seg_ids.slice(seg.index())[lo..hi],
            extents: &self.seg_xs.slice(seg.index())[lo..hi],
            rows: &self.seg_rows.slice(seg.index())[lo..hi],
        }
    }

    /// The nearest cell of `seg` entirely at or left of `x` (its right edge
    /// ≤ `x`), if any.
    pub fn left_neighbor(&self, seg: SegId, x: i32) -> Option<CellId> {
        let idx = self.list_lower(seg.index(), x);
        idx.checked_sub(1)
            .map(|i| self.seg_ids.slice(seg.index())[i])
    }

    /// True if `rect` lies inside segments on every spanned row and no
    /// placed cell overlaps it.
    pub fn is_free(&self, design: &Design, rect: &SiteRect) -> bool {
        self.span_check(design, rect).is_ok()
    }

    fn span_check(&self, design: &Design, rect: &SiteRect) -> Result<Vec<SegId>, DbError> {
        let fp = design.floorplan();
        let mut segs = Vec::with_capacity(rect.h as usize);
        for row in rect.rows() {
            let seg_id = self
                .segment_at(design, row, rect.x)
                .ok_or(DbError::OutsideSegments {
                    cell: CellId::new(u32::MAX),
                    at: rect.origin(),
                })?;
            let seg = &fp.segments()[seg_id.index()];
            if !seg.contains_span(rect.x, rect.right()) {
                return Err(DbError::OutsideSegments {
                    cell: CellId::new(u32::MAX),
                    at: rect.origin(),
                });
            }
            // One binary search over the extents; the cell-list scan runs
            // only to name an occupant on the error path.
            if !self.span_is_free(seg_id, rect.x, rect.right()) {
                let occupants = self.cells_intersecting(seg_id, rect.x, rect.right());
                let occ = *occupants.first().expect("occupied span names an occupant");
                return Err(DbError::Overlap {
                    cell: CellId::new(u32::MAX),
                    occupant: occ,
                    rect: *rect,
                });
            }
            segs.push(seg_id);
        }
        Ok(segs)
    }

    /// Index of `cell` (whose span starts at x = `x0`) in `seg`'s ordered
    /// list, via binary search — lists are strictly x-ordered, so the
    /// position is unique.
    fn list_index_of(&self, seg: SegId, cell: CellId, x0: i32) -> usize {
        let idx = self.list_upper(seg.index(), x0);
        debug_assert!(
            self.seg_ids.slice(seg.index()).get(idx) == Some(&cell),
            "cell not at its list slot"
        );
        idx
    }

    /// The one insertion path: lists `cell` with footprint `rect` on
    /// `seg`'s ordered list (extent, rows and id move together).
    fn seg_insert(&mut self, design: &Design, seg: usize, rect: &SiteRect, cell: CellId) {
        let idx = self.list_upper(seg, rect.x);
        self.seg_xs.insert(seg, idx, (rect.x, rect.right()));
        self.seg_rows.insert(seg, idx, (rect.y, rect.h));
        self.seg_ids.insert(seg, idx, cell);
        self.debug_check_index(design, seg);
    }

    /// The one removal path: unlists `cell` (left edge `x0`) from `seg`'s
    /// ordered list. The in-block `copy_within` of the CSR arena replaces
    /// the old heap-`Vec::remove` on the per-segment vectors.
    fn seg_remove(&mut self, design: &Design, seg: SegId, cell: CellId, x0: i32) {
        let idx = self.list_index_of(seg, cell, x0);
        self.seg_xs.remove(seg.index(), idx);
        self.seg_rows.remove(seg.index(), idx);
        let removed = self.seg_ids.remove(seg.index(), idx);
        debug_assert_eq!(removed, cell, "removed a different cell");
        self.debug_check_index(design, seg.index());
    }

    /// Places an unplaced cell at `at`, enforcing all legality constraints.
    ///
    /// # Errors
    ///
    /// * [`DbError::AlreadyPlaced`] if the cell is placed.
    /// * [`DbError::RailMismatch`] if an even-height cell lands on an
    ///   incompatible row.
    /// * [`DbError::OutsideSegments`] if the footprint leaves the segments.
    /// * [`DbError::Overlap`] if another cell occupies part of the
    ///   footprint.
    pub fn place(&mut self, design: &Design, cell: CellId, at: SitePoint) -> Result<(), DbError> {
        self.place_impl(design, cell, at, true)
    }

    /// Like [`PlacementState::place`] but without the power-rail parity
    /// check — used by the paper's relaxed-alignment experiment (Section 6)
    /// where every cell may sit on any row.
    ///
    /// # Errors
    ///
    /// Same as [`PlacementState::place`] except [`DbError::RailMismatch`]
    /// is never returned.
    pub fn place_ignoring_rails(
        &mut self,
        design: &Design,
        cell: CellId,
        at: SitePoint,
    ) -> Result<(), DbError> {
        self.place_impl(design, cell, at, false)
    }

    fn place_impl(
        &mut self,
        design: &Design,
        cell: CellId,
        at: SitePoint,
        enforce_rails: bool,
    ) -> Result<(), DbError> {
        if self.is_placed(cell) {
            return Err(DbError::AlreadyPlaced(cell));
        }
        let c = design.cell(cell);
        let fp = design.floorplan();
        if enforce_rails && !fp.rail_compatible(c.rail(), c.height(), at.y) {
            return Err(DbError::RailMismatch { cell, row: at.y });
        }
        let rect = SiteRect::new(at.x, at.y, c.width(), c.height());
        if !design.fence_allows(design.region_of(cell), &rect) {
            return Err(DbError::FenceViolation { cell, rect });
        }
        let segs = self.span_check(design, &rect).map_err(|e| match e {
            DbError::OutsideSegments { at, .. } => DbError::OutsideSegments { cell, at },
            DbError::Overlap { occupant, rect, .. } => DbError::Overlap {
                cell,
                occupant,
                rect,
            },
            other => other,
        })?;
        self.note(cell);
        self.pos[cell.index()] = Some(at);
        self.orient[cell.index()] = fp.parity().orient_on_row(c.rail(), c.height(), at.y);
        for seg in segs {
            self.seg_insert(design, seg.index(), &rect, cell);
        }
        Ok(())
    }

    /// Removes a placed cell from the placement.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::NotPlaced`] if the cell is not placed.
    pub fn remove(&mut self, design: &Design, cell: CellId) -> Result<SitePoint, DbError> {
        let at = self.pos[cell.index()].ok_or(DbError::NotPlaced(cell))?;
        self.note(cell);
        let c = design.cell(cell);
        for row in at.y..at.y + c.height() {
            let seg = self
                .segment_at(design, row, at.x)
                .expect("placed cell must be on segments");
            self.seg_remove(design, seg, cell, at.x);
        }
        self.pos[cell.index()] = None;
        Ok(at)
    }

    /// Applies a batch of horizontal moves that preserve each cell's row,
    /// segment, and relative order — the only kind of move the MLL
    /// realization step produces. All moves are validated together; on error
    /// nothing is changed.
    ///
    /// # Errors
    ///
    /// * [`DbError::NotPlaced`] if a moved cell is unplaced.
    /// * [`DbError::OutsideSegments`] if a new span leaves its segment.
    /// * [`DbError::Overlap`] if, after all moves, a moved cell overlaps or
    ///   passes a list neighbor.
    pub fn shift_batch(&mut self, design: &Design, moves: &[(CellId, i32)]) -> Result<(), DbError> {
        // Validate containment and collect old positions.
        let fp = design.floorplan();
        let mut old = Vec::with_capacity(moves.len());
        for &(cell, new_x) in moves {
            let at = self.pos[cell.index()].ok_or(DbError::NotPlaced(cell))?;
            let c = design.cell(cell);
            for row in at.y..at.y + c.height() {
                let seg_id = self
                    .segment_at(design, row, at.x)
                    .expect("placed cell must be on segments");
                let seg = &fp.segments()[seg_id.index()];
                if !seg.contains_span(new_x, new_x + c.width()) {
                    return Err(DbError::OutsideSegments {
                        cell,
                        at: SitePoint::new(new_x, at.y),
                    });
                }
            }
            let new_rect = SiteRect::new(new_x, at.y, c.width(), c.height());
            if !design.fence_allows(design.region_of(cell), &new_rect) {
                return Err(DbError::FenceViolation {
                    cell,
                    rect: new_rect,
                });
            }
            old.push((cell, at));
        }
        // Record the list coordinates before mutating positions. Relative
        // order is preserved by contract, so each recorded index stays the
        // cell's list slot after the moves commit.
        let mut touched: Vec<(SegId, usize, CellId)> = Vec::new();
        for &(cell, at) in &old {
            let c = design.cell(cell);
            for row in at.y..at.y + c.height() {
                let seg = self
                    .segment_at(design, row, at.x)
                    .expect("placed cell must be on segments");
                let idx = self.list_index_of(seg, cell, at.x);
                touched.push((seg, idx, cell));
            }
        }
        // Apply to the authoritative record. Journal first touches before
        // mutating so a later rollback sees the true prior x even if this
        // batch's own internal rollback fires below.
        for &(cell, new_x) in moves {
            let at = self.pos[cell.index()].expect("validated above");
            self.note(cell);
            self.pos[cell.index()] = Some(SitePoint::new(new_x, at.y));
        }
        // Verify order and non-overlap against list neighbors.
        let violation = touched.iter().any(|&(seg, idx, _)| {
            let list = self.seg_ids.slice(seg.index());
            let rect_at = |i: usize| {
                let id = list[i];
                let p = self.pos[id.index()].expect("listed cell must be placed");
                (p.x, p.x + design.cell(id).width())
            };
            let (x0, x1) = rect_at(idx);
            let bad_left = idx > 0 && rect_at(idx - 1).1 > x0;
            let bad_right = idx + 1 < list.len() && x1 > rect_at(idx + 1).0;
            bad_left || bad_right
        });
        if violation {
            // Roll back.
            for &(cell, at) in &old {
                self.pos[cell.index()] = Some(at);
            }
            return Err(DbError::Overlap {
                cell: moves[0].0,
                occupant: moves[0].0,
                rect: SiteRect::new(0, 0, 0, 0),
            });
        }
        // Refresh the interleaved keys at the recorded slots (order is
        // unchanged, so an in-place overwrite keeps the array sorted).
        // Rows do not change.
        for &(seg, idx, cell) in &touched {
            let p = self.pos[cell.index()].expect("moved cell stays placed");
            *self.seg_xs.get_mut(seg.index(), idx) = (p.x, p.x + design.cell(cell).width());
        }
        #[cfg(debug_assertions)]
        for &(seg, ..) in &touched {
            self.debug_check_index(design, seg.index());
        }
        Ok(())
    }

    /// Ids and positions of all placed cells.
    pub fn iter_placed(&self) -> impl Iterator<Item = (CellId, SitePoint)> + '_ {
        self.pos
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.map(|p| (CellId::from_usize(i), p)))
    }

    /// Position of a cell in fractional site units, falling back to the
    /// design's input position when unplaced — the resolver used for HPWL
    /// evaluation during legalization.
    pub fn position_or_input(&self, design: &Design, cell: CellId) -> (f64, f64) {
        match self.pos[cell.index()] {
            Some(p) => (f64::from(p.x), f64::from(p.y)),
            None => design.input_position(cell),
        }
    }

    /// Records `cell`'s current position in the innermost open savepoint
    /// on first touch at that level. Called by every authoritative
    /// position mutation (`place_impl`, `remove`, `shift_batch`); with no
    /// savepoint open it costs one branch.
    fn note(&mut self, cell: CellId) {
        let j = &mut self.journal;
        let Some(&start) = j.marks.last() else {
            return;
        };
        let i = cell.index();
        if i >= j.stamp.len() {
            // Cells appended (ECO insert) after the savepoint opened.
            j.stamp.resize(self.pos.len().max(i + 1), 0);
        }
        let before = j.stamp[i];
        if j.holds(cell, before, start) {
            return;
        }
        j.stamp[i] = j.log.len() as u32;
        j.prev.push(before);
        j.log.push((cell, self.pos[i]));
    }

    /// Opens a savepoint: from here until it is rolled back or released,
    /// every position mutation — direct placements, removals, MLL
    /// realization shifts, escalation displacements — journals the
    /// affected cell's position from before the savepoint on first touch,
    /// so the whole span can be undone bit-exactly without the caller
    /// knowing which cells the legalizer decided to move. Savepoints nest.
    pub fn savepoint(&mut self) -> Savepoint {
        let j = &mut self.journal;
        if j.stamp.len() < self.pos.len() {
            j.stamp.resize(self.pos.len(), 0);
        }
        j.marks.push(j.log.len() as u32);
        Savepoint {
            level: j.marks.len() - 1,
        }
    }

    /// Number of open savepoints.
    pub fn open_savepoints(&self) -> usize {
        self.journal.marks.len()
    }

    /// The entries made since `sp` opened: each touched cell with its
    /// position before the savepoint (`None` = it was unplaced), in
    /// first-touch order. Entries of savepoints nested inside `sp` that
    /// are still open follow, so with none open each cell appears once.
    pub fn journal(&self, sp: &Savepoint) -> &[(CellId, Option<SitePoint>)] {
        &self.journal.log[self.journal.marks[sp.level] as usize..]
    }

    fn assert_innermost(&self, sp: &Savepoint) {
        assert_eq!(
            sp.level + 1,
            self.journal.marks.len(),
            "savepoints close innermost first"
        );
    }

    /// Closes `sp` keeping every mutation made since it opened. Its
    /// entries join the enclosing savepoint, if any.
    ///
    /// # Panics
    ///
    /// If a savepoint opened after `sp` is still open.
    pub fn release(&mut self, sp: Savepoint) {
        self.assert_innermost(&sp);
        self.journal.close();
    }

    /// Closes `sp` restoring every cell it journaled to its position from
    /// before the savepoint: all of them are lifted first, then the
    /// priors are placed, in entry order, without a rail-parity check
    /// (they are positions the state already held, which relaxed-mode
    /// states hold off parity). The restoration is exact —
    /// positions, segment cell lists and their extent and row entries
    /// all match the state at [`savepoint`](PlacementState::savepoint) (the
    /// index is rebuilt logically, which is all any query observes). Its
    /// entries still join the enclosing savepoint, which then reads like a
    /// flat first-touch log.
    ///
    /// # Errors
    ///
    /// Propagates database errors only if the journal no longer applies —
    /// impossible unless the design itself was mutated incompatibly (e.g. a
    /// journaled cell was widened) since the savepoint opened.
    ///
    /// # Panics
    ///
    /// If a savepoint opened after `sp` is still open.
    pub fn rollback_to(&mut self, design: &Design, sp: Savepoint) -> Result<(), DbError> {
        self.assert_innermost(&sp);
        // The restoring mutations touch only cells this level already
        // holds, so they journal nothing.
        let (start, end) = (
            self.journal.marks[sp.level] as usize,
            self.journal.log.len(),
        );
        let mut result = Ok(());
        for i in start..end {
            let cell = self.journal.log[i].0;
            if self.is_placed(cell) {
                result = self.remove(design, cell).map(|_| ());
                if result.is_err() {
                    break;
                }
            }
        }
        for i in start..end {
            if result.is_err() {
                break;
            }
            if let (cell, Some(at)) = self.journal.log[i] {
                result = self.place_ignoring_rails(design, cell, at);
            }
        }
        self.journal.close();
        result
    }

    /// A copy of the full authoritative position record, one entry per
    /// cell (`None` = unplaced). Promoted from the ECO example's ad-hoc
    /// helper; pairs with [`count_moved`](PlacementState::count_moved).
    pub fn snapshot(&self) -> Vec<Option<SitePoint>> {
        self.pos.clone()
    }

    /// Number of cells whose position differs from a prior
    /// [`snapshot`](PlacementState::snapshot). Cells beyond the snapshot's
    /// length (appended since it was taken) count as moved when placed.
    pub fn count_moved(&self, before: &[Option<SitePoint>]) -> usize {
        let common = self.pos.len().min(before.len());
        self.pos[..common]
            .iter()
            .zip(&before[..common])
            .filter(|(now, was)| now != was)
            .count()
            + self.pos[common..].iter().filter(|p| p.is_some()).count()
    }

    /// Full cross-check of the occupancy index — every list entry's
    /// extent, bottom row and height — against a linear rebuild from
    /// `pos[]` and the design, available in release builds (the debug-only
    /// sampled check runs per mutation; this one runs on demand over every
    /// segment). Returns the first divergence as text — the oracle the
    /// ECO rollback and fuzz harnesses assert with.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first diverged segment.
    pub fn verify_index(&self, design: &Design) -> Result<(), String> {
        (0..design.floorplan().segments().len()).try_for_each(|seg| self.check_segment(design, seg))
    }

    /// Extends the per-cell records to cover cells appended to the design
    /// since this state was created ([`Design::append_movable`]); new
    /// cells start unplaced. No-op when already sized.
    ///
    /// # Panics
    ///
    /// If the design has *fewer* cells than this state tracks — use
    /// [`truncate`](PlacementState::truncate) for that direction.
    pub fn grow(&mut self, design: &Design) {
        let n = design.num_cells();
        assert!(
            n >= self.pos.len(),
            "grow cannot shrink: design has {n} cells, state tracks {}",
            self.pos.len()
        );
        self.pos.resize(n, None);
        self.orient.resize(n, Orient::North);
    }

    /// Drops trailing per-cell records down to `design.num_cells()` — the
    /// inverse of [`grow`](PlacementState::grow) after
    /// [`Design::truncate_cells`] reverted an append.
    ///
    /// # Errors
    ///
    /// [`DbError::Invalid`] if a dropped cell is still placed (remove it
    /// first; truncating a placed cell would corrupt the segment lists).
    pub fn truncate(&mut self, design: &Design) -> Result<(), DbError> {
        let n = design.num_cells();
        if let Some(i) = (n..self.pos.len()).find(|&i| self.pos[i].is_some()) {
            return Err(DbError::Invalid(format!(
                "truncate: cell {} is still placed",
                CellId::from_usize(i)
            )));
        }
        self.pos.truncate(n);
        self.orient.truncate(n);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DesignBuilder;
    use mrl_geom::PowerRail;

    /// 4 rows x 20 sites, cells: a(3x1), b(2x2), c(4x1), d(2x2, VSS rail).
    fn fixture() -> (Design, CellId, CellId, CellId, CellId) {
        let mut b = DesignBuilder::new(4, 20);
        let a = b.add_cell("a", 3, 1);
        let bb = b.add_cell("b", 2, 2);
        let c = b.add_cell("c", 4, 1);
        let d = b.add_cell_with_rail("d", 2, 2, PowerRail::Vss);
        let design = b.finish().unwrap();
        (design, a, bb, c, d)
    }

    #[test]
    fn place_and_query() {
        let (d, a, b, ..) = fixture();
        let mut s = PlacementState::new(&d);
        s.place(&d, a, SitePoint::new(0, 0)).unwrap();
        s.place(&d, b, SitePoint::new(5, 0)).unwrap();
        assert_eq!(s.position(a), Some(SitePoint::new(0, 0)));
        assert_eq!(s.num_placed(), 2);
        assert_eq!(s.rect_of(&d, b), Some(SiteRect::new(5, 0, 2, 2)));
        // b spans rows 0 and 1, so it is listed in both segments.
        let seg0 = s.segment_at(&d, 0, 0).unwrap();
        let seg1 = s.segment_at(&d, 1, 0).unwrap();
        assert_eq!(s.segment_cells(seg0), &[a, b]);
        assert_eq!(s.segment_cells(seg1), &[b]);
        // The interleaved keys mirror the lists entry for entry.
        assert_eq!(s.segment_extents(seg0), &[(0, 3), (5, 7)]);
        assert_eq!(s.segment_extents(seg1), &[(5, 7)]);
        assert_eq!(s.segment_rows(seg0), &[(0, 1), (0, 2)]);
        assert_eq!(s.segment_rows(seg1), &[(0, 2)]);
        assert_eq!(
            s.list_intersecting(seg1, 0, 20),
            ListSlice {
                cells: &[b],
                extents: &[(5, 7)],
                rows: &[(0, 2)],
            }
        );
    }

    #[test]
    fn index_cross_check_runs_only_in_debug_builds() {
        let (d, a, ..) = fixture();
        let before = index_cross_check_count();
        let mut s = PlacementState::new(&d);
        s.place(&d, a, SitePoint::new(0, 0)).unwrap();
        s.remove(&d, a).unwrap();
        let delta = index_cross_check_count() - before;
        if cfg!(debug_assertions) {
            assert!(
                delta >= 2,
                "debug builds must cross-check each mutation (saw {delta})"
            );
        } else {
            assert_eq!(delta, 0, "release builds must compile the cross-check out");
        }
    }

    #[test]
    fn span_is_free_answers_from_the_extents() {
        let (d, a, b, c, _) = fixture();
        let mut s = PlacementState::new(&d);
        s.place(&d, a, SitePoint::new(2, 0)).unwrap();
        s.place(&d, b, SitePoint::new(8, 0)).unwrap();
        s.place(&d, c, SitePoint::new(13, 0)).unwrap();
        let seg = s.segment_at(&d, 0, 0).unwrap();
        // Gaps on row 0: [0,2), [5,8), [10,13), [17,20).
        assert_eq!(
            s.recompute_gaps(&d, seg),
            [(0, 2), (5, 8), (10, 13), (17, 20)]
        );
        for (x0, x1, free) in [
            (0, 2, true),   // a whole gap, from the segment start
            (5, 8, true),   // a whole gap between two cells
            (17, 20, true), // a whole gap, to the segment end
            (5, 6, true),   // starts at a cell's right edge
            (7, 8, true),   // ends at a cell's left edge
            (4, 6, false),  // reaches back into a
            (7, 9, false),  // reaches into b
            (0, 20, false), // the whole segment
            (6, 6, false),  // empty
            (3, 3, false),  // empty, inside a cell
        ] {
            assert_eq!(s.span_is_free(seg, x0, x1), free, "span [{x0},{x1})");
        }
    }

    #[test]
    fn overlap_rejected() {
        let (d, a, b, ..) = fixture();
        let mut s = PlacementState::new(&d);
        s.place(&d, a, SitePoint::new(0, 0)).unwrap();
        let err = s.place(&d, b, SitePoint::new(2, 0)).unwrap_err();
        assert!(matches!(err, DbError::Overlap { occupant, .. } if occupant == a));
        // Nothing was half-inserted.
        assert!(!s.is_placed(b));
        assert_eq!(s.segment_cells(s.segment_at(&d, 1, 0).unwrap()), &[]);
    }

    #[test]
    fn abutment_is_legal() {
        let (d, a, b, ..) = fixture();
        let mut s = PlacementState::new(&d);
        s.place(&d, a, SitePoint::new(0, 0)).unwrap();
        s.place(&d, b, SitePoint::new(3, 0)).unwrap();
        assert!(s.is_placed(b));
    }

    #[test]
    fn multi_row_overlap_detected_on_upper_row() {
        let (d, _, b, _, dd) = fixture();
        let mut s = PlacementState::new(&d);
        s.place(&d, b, SitePoint::new(0, 0)).unwrap(); // rows 0-1
                                                       // d is even-height with VSS bottom rail: row 1 is compatible.
        let err = s.place(&d, dd, SitePoint::new(1, 1)).unwrap_err();
        assert!(matches!(err, DbError::Overlap { .. }));
        s.place(&d, dd, SitePoint::new(2, 1)).unwrap();
    }

    #[test]
    fn rail_parity_enforced_for_even_height() {
        let (d, _, b, _, dd) = fixture();
        let mut s = PlacementState::new(&d);
        // b has VDD bottom rail: rows 0 and 2 are compatible, row 1 is not.
        assert!(matches!(
            s.place(&d, b, SitePoint::new(0, 1)),
            Err(DbError::RailMismatch { row: 1, .. })
        ));
        s.place(&d, b, SitePoint::new(0, 2)).unwrap();
        // d has VSS bottom rail: row 0 incompatible, row 1 compatible.
        assert!(matches!(
            s.place(&d, dd, SitePoint::new(10, 0)),
            Err(DbError::RailMismatch { .. })
        ));
        s.place(&d, dd, SitePoint::new(10, 1)).unwrap();
    }

    #[test]
    fn odd_height_cell_flips_instead_of_failing() {
        let (d, a, ..) = fixture();
        let mut s = PlacementState::new(&d);
        s.place(&d, a, SitePoint::new(0, 1)).unwrap();
        assert_eq!(s.orient(a), Orient::FlippedSouth);
    }

    #[test]
    fn out_of_floorplan_rejected() {
        let (d, a, ..) = fixture();
        let mut s = PlacementState::new(&d);
        assert!(matches!(
            s.place(&d, a, SitePoint::new(18, 0)),
            Err(DbError::OutsideSegments { .. })
        ));
        assert!(matches!(
            s.place(&d, a, SitePoint::new(0, 4)),
            Err(DbError::OutsideSegments { .. })
        ));
        assert!(matches!(
            s.place(&d, a, SitePoint::new(-1, 0)),
            Err(DbError::OutsideSegments { .. })
        ));
    }

    #[test]
    fn remove_unlists_from_all_rows() {
        let (d, _, b, ..) = fixture();
        let mut s = PlacementState::new(&d);
        s.place(&d, b, SitePoint::new(0, 0)).unwrap();
        let at = s.remove(&d, b).unwrap();
        assert_eq!(at, SitePoint::new(0, 0));
        assert!(!s.is_placed(b));
        assert!(s.segment_cells(s.segment_at(&d, 0, 0).unwrap()).is_empty());
        assert!(s.segment_cells(s.segment_at(&d, 1, 0).unwrap()).is_empty());
        assert!(matches!(s.remove(&d, b), Err(DbError::NotPlaced(_))));
    }

    #[test]
    fn double_place_rejected() {
        let (d, a, ..) = fixture();
        let mut s = PlacementState::new(&d);
        s.place(&d, a, SitePoint::new(0, 0)).unwrap();
        assert!(matches!(
            s.place(&d, a, SitePoint::new(5, 0)),
            Err(DbError::AlreadyPlaced(_))
        ));
    }

    #[test]
    fn cells_intersecting_finds_span_overlaps() {
        let (d, a, b, c, _) = fixture();
        let mut s = PlacementState::new(&d);
        s.place(&d, a, SitePoint::new(0, 0)).unwrap(); // [0,3)
        s.place(&d, b, SitePoint::new(5, 0)).unwrap(); // [5,7)
        s.place(&d, c, SitePoint::new(10, 0)).unwrap(); // [10,14)
        let seg = s.segment_at(&d, 0, 0).unwrap();
        assert_eq!(s.cells_intersecting(seg, 3, 5), &[]);
        assert_eq!(s.cells_intersecting(seg, 2, 6), &[a, b]);
        assert_eq!(s.cells_intersecting(seg, 0, 20), &[a, b, c]);
        assert_eq!(s.cells_intersecting(seg, 13, 14), &[c]);
        let hit = s.list_intersecting(seg, 2, 6);
        assert_eq!(
            (hit.cells, hit.extents, hit.rows),
            (&[a, b][..], &[(0, 3), (5, 7)][..], &[(0, 1), (0, 2)][..])
        );
        assert!(s.list_intersecting(seg, 3, 5).cells.is_empty());
    }

    #[test]
    fn left_neighbor_respects_edge_touching() {
        let (d, a, _, c, _) = fixture();
        let mut s = PlacementState::new(&d);
        s.place(&d, a, SitePoint::new(0, 0)).unwrap(); // [0,3)
        s.place(&d, c, SitePoint::new(6, 0)).unwrap(); // [6,10)
        let seg = s.segment_at(&d, 0, 0).unwrap();
        assert_eq!(s.left_neighbor(seg, 3), Some(a));
        assert_eq!(s.left_neighbor(seg, 2), None);
        assert_eq!(s.left_neighbor(seg, 15), Some(c));
    }

    #[test]
    fn shift_batch_moves_chain() {
        let (d, a, b, c, _) = fixture();
        let mut s = PlacementState::new(&d);
        s.place(&d, a, SitePoint::new(0, 0)).unwrap();
        s.place(&d, b, SitePoint::new(3, 0)).unwrap();
        s.place(&d, c, SitePoint::new(5, 0)).unwrap();
        // Shift the whole chain right by 2 (order preserved).
        s.shift_batch(&d, &[(a, 2), (b, 5), (c, 7)]).unwrap();
        assert_eq!(s.position(b), Some(SitePoint::new(5, 0)));
        let seg = s.segment_at(&d, 0, 0).unwrap();
        assert_eq!(s.segment_cells(seg), &[a, b, c]);
        // The interleaved keys followed the moves; the rows stayed.
        assert_eq!(s.segment_extents(seg), &[(2, 5), (5, 7), (7, 11)]);
        assert_eq!(s.segment_rows(seg), &[(0, 1), (0, 2), (0, 1)]);
    }

    #[test]
    fn shift_batch_rejects_overlap_and_rolls_back() {
        let (d, a, b, ..) = fixture();
        let mut s = PlacementState::new(&d);
        s.place(&d, a, SitePoint::new(0, 0)).unwrap();
        s.place(&d, b, SitePoint::new(3, 0)).unwrap();
        let err = s.shift_batch(&d, &[(a, 2)]).unwrap_err();
        assert!(matches!(err, DbError::Overlap { .. }));
        assert_eq!(s.position(a), Some(SitePoint::new(0, 0)));
        let seg = s.segment_at(&d, 0, 0).unwrap();
        assert_eq!(
            s.segment_extents(seg),
            s.recompute_extents(&d, seg).as_slice()
        );
    }

    #[test]
    fn shift_batch_rejects_leaving_segment() {
        let (d, a, ..) = fixture();
        let mut s = PlacementState::new(&d);
        s.place(&d, a, SitePoint::new(0, 0)).unwrap();
        assert!(matches!(
            s.shift_batch(&d, &[(a, 18)]),
            Err(DbError::OutsideSegments { .. })
        ));
    }

    #[test]
    fn segments_respect_blockages() {
        let mut b = DesignBuilder::new(1, 20);
        let a = b.add_cell("a", 3, 1);
        b.add_blockage(SiteRect::new(5, 0, 3, 1));
        let d = b.finish().unwrap();
        let mut s = PlacementState::new(&d);
        // Spanning the blockage is rejected.
        assert!(matches!(
            s.place(&d, a, SitePoint::new(4, 0)),
            Err(DbError::OutsideSegments { .. })
        ));
        s.place(&d, a, SitePoint::new(8, 0)).unwrap();
        // Distinct segments have distinct ids.
        assert_ne!(
            s.segment_at(&d, 0, 0).unwrap(),
            s.segment_at(&d, 0, 8).unwrap()
        );
        assert_eq!(s.segment_at(&d, 0, 6), None);
    }

    #[test]
    fn position_or_input_falls_back() {
        let (d, a, ..) = fixture();
        let mut s = PlacementState::new(&d);
        assert_eq!(s.position_or_input(&d, a), (0.0, 0.0));
        s.place(&d, a, SitePoint::new(4, 2)).unwrap();
        assert_eq!(s.position_or_input(&d, a), (4.0, 2.0));
    }

    #[test]
    fn iter_placed_lists_all() {
        let (d, a, b, ..) = fixture();
        let mut s = PlacementState::new(&d);
        s.place(&d, a, SitePoint::new(0, 0)).unwrap();
        s.place(&d, b, SitePoint::new(5, 0)).unwrap();
        let placed: Vec<_> = s.iter_placed().collect();
        assert_eq!(placed.len(), 2);
        assert!(placed.contains(&(a, SitePoint::new(0, 0))));
    }

    #[test]
    fn index_bytes_counts_the_arenas() {
        let (d, a, b, ..) = fixture();
        let mut s = PlacementState::new(&d);
        let empty = s.index_bytes();
        assert!(empty > 0, "offset tables exist before any placement");
        s.place(&d, a, SitePoint::new(0, 0)).unwrap();
        s.place(&d, b, SitePoint::new(5, 0)).unwrap();
        assert!(s.index_bytes() > empty, "cell arenas grew");
    }

    #[test]
    fn extents_match_pos_rebuild_after_mutations() {
        let (d, a, b, c, dd) = fixture();
        let mut s = PlacementState::new(&d);
        s.place(&d, a, SitePoint::new(2, 0)).unwrap();
        s.place(&d, b, SitePoint::new(8, 0)).unwrap();
        s.place(&d, dd, SitePoint::new(0, 1)).unwrap();
        s.place(&d, c, SitePoint::new(12, 0)).unwrap();
        s.shift_batch(&d, &[(b, 7), (c, 13)]).unwrap();
        s.remove(&d, a).unwrap();
        for si in 0..d.floorplan().segments().len() {
            let seg = SegId::from_usize(si);
            assert_eq!(
                s.segment_extents(seg),
                s.recompute_extents(&d, seg).as_slice(),
                "segment {si}"
            );
        }
        s.verify_index(&d).unwrap();
    }

    /// Full structural equality of two states through public accessors:
    /// positions, orients, and the occupancy index arenas per segment.
    fn assert_states_identical(d: &Design, a: &PlacementState, b: &PlacementState) {
        assert_eq!(a.snapshot(), b.snapshot(), "pos[] diverged");
        for i in 0..d.num_cells() {
            let id = CellId::from_usize(i);
            assert_eq!(a.orient(id), b.orient(id), "orient of {id} diverged");
        }
        for si in 0..d.floorplan().segments().len() {
            let seg = SegId::from_usize(si);
            assert_eq!(a.segment_cells(seg), b.segment_cells(seg), "seg {si} ids");
            assert_eq!(
                a.segment_extents(seg),
                b.segment_extents(seg),
                "seg {si} extents"
            );
            assert_eq!(a.segment_rows(seg), b.segment_rows(seg), "seg {si} rows");
        }
    }

    #[test]
    fn rollback_restores_bit_exactly_across_all_mutation_kinds() {
        let (d, a, b, c, dd) = fixture();
        let mut s = PlacementState::new(&d);
        s.place(&d, a, SitePoint::new(2, 0)).unwrap();
        s.place(&d, b, SitePoint::new(8, 0)).unwrap();
        s.place(&d, dd, SitePoint::new(0, 1)).unwrap();
        let before = s.clone();

        let sp = s.savepoint();
        assert_eq!(s.open_savepoints(), 1);
        s.remove(&d, a).unwrap(); // remove
        s.place(&d, c, SitePoint::new(12, 0)).unwrap(); // place
        s.shift_batch(&d, &[(b, 6)]).unwrap(); // shift
        s.remove(&d, dd).unwrap(); // row move: remove, then place
        s.place_ignoring_rails(&d, dd, SitePoint::new(14, 2))
            .unwrap();
        // First-touch: each cell appears exactly once despite multiple moves.
        let mut ids: Vec<CellId> = s.journal(&sp).iter().map(|&(c, _)| c).collect();
        let n = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), n, "journal has duplicate entries");
        s.rollback_to(&d, sp).unwrap();
        assert_eq!(s.open_savepoints(), 0);
        assert_states_identical(&d, &before, &s);
        s.verify_index(&d).unwrap();
    }

    #[test]
    fn release_keeps_mutations_and_journal_records_first_touch() {
        let (d, a, b, ..) = fixture();
        let mut s = PlacementState::new(&d);
        s.place(&d, a, SitePoint::new(2, 0)).unwrap();
        let sp = s.savepoint();
        s.shift_batch(&d, &[(a, 3)]).unwrap();
        s.shift_batch(&d, &[(a, 5)]).unwrap();
        s.place(&d, b, SitePoint::new(10, 0)).unwrap();
        assert_eq!(
            s.journal(&sp),
            &[(a, Some(SitePoint::new(2, 0))), (b, None)],
            "entries hold pre-savepoint positions in first-touch order"
        );
        s.release(sp);
        assert_eq!(s.position(a), Some(SitePoint::new(5, 0)));
        assert_eq!(s.position(b), Some(SitePoint::new(10, 0)));
        // A fresh savepoint starts from a clean journal.
        let sp = s.savepoint();
        assert!(s.journal(&sp).is_empty());
        s.release(sp);
    }

    #[test]
    fn journal_survives_failed_mutations() {
        let (d, a, b, ..) = fixture();
        let mut s = PlacementState::new(&d);
        s.place(&d, a, SitePoint::new(2, 0)).unwrap();
        s.place(&d, b, SitePoint::new(8, 0)).unwrap();
        let before = s.clone();
        let sp = s.savepoint();
        s.shift_batch(&d, &[(a, 4)]).unwrap();
        // Overlapping shift fails and internally restores pos[]; the journal
        // must still hold a's original x from the first successful shift.
        assert!(s.shift_batch(&d, &[(a, 8)]).is_err());
        s.rollback_to(&d, sp).unwrap();
        assert_states_identical(&d, &before, &s);
    }

    /// An inner rollback restores the inner savepoint's state, and the
    /// outer journal still reads like one flat first-touch log — the
    /// length ECO reports as `touched` and `journal_depth`.
    #[test]
    fn inner_rollback_keeps_the_outer_log_flat() {
        let (d, a, b, c, dd) = fixture();
        let mut s = PlacementState::new(&d);
        s.place(&d, a, SitePoint::new(2, 0)).unwrap();
        s.place(&d, b, SitePoint::new(8, 0)).unwrap();
        s.place(&d, dd, SitePoint::new(0, 1)).unwrap();
        let outer = s.savepoint();
        s.shift_batch(&d, &[(a, 3)]).unwrap();
        let mid = s.clone();
        let inner = s.savepoint();
        s.shift_batch(&d, &[(a, 4), (b, 9)]).unwrap();
        s.place(&d, c, SitePoint::new(14, 0)).unwrap();
        assert_eq!(s.journal(&inner).len(), 3);
        s.rollback_to(&d, inner).unwrap();
        assert_states_identical(&d, &mid, &s);
        // A flat journal would hold a (from the outer shift), then b and c
        // (first touched inside the rolled-back chain), with their
        // positions from before the outer savepoint.
        assert_eq!(
            s.journal(&outer),
            &[
                (a, Some(SitePoint::new(2, 0))),
                (b, Some(SitePoint::new(8, 0))),
                (c, None),
            ]
        );
        s.rollback_to(&d, outer).unwrap();
        assert_eq!(s.position(a), Some(SitePoint::new(2, 0)));
        s.verify_index(&d).unwrap();
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn outer_savepoint_cannot_close_first() {
        let (d, ..) = fixture();
        let mut s = PlacementState::new(&d);
        let outer = s.savepoint();
        let _inner = s.savepoint();
        s.release(outer);
    }

    #[test]
    fn snapshot_and_count_moved_track_differences() {
        let (d, a, b, ..) = fixture();
        let mut s = PlacementState::new(&d);
        s.place(&d, a, SitePoint::new(2, 0)).unwrap();
        let snap = s.snapshot();
        assert_eq!(s.count_moved(&snap), 0);
        s.place(&d, b, SitePoint::new(8, 0)).unwrap();
        s.shift_batch(&d, &[(a, 3)]).unwrap();
        assert_eq!(s.count_moved(&snap), 2);
        s.remove(&d, b).unwrap();
        assert_eq!(s.count_moved(&snap), 1, "b is back to unplaced");
    }

    #[test]
    fn verify_index_reports_divergence_text() {
        let (d, a, ..) = fixture();
        let mut s = PlacementState::new(&d);
        s.place(&d, a, SitePoint::new(2, 0)).unwrap();
        s.verify_index(&d).unwrap();
    }
}
