//! Placement rows and segments.
//!
//! A *row* is defined by the floorplan; a *segment* (Section 2.1.2 of the
//! paper) is a maximal run of placement sites on a row not blocked by macros
//! or placement blockages. All legalization bookkeeping is per segment.

use crate::DbError;
use mrl_geom::{PowerRail, RailParity, SiteRect};
use std::ops::Range;

/// One placement row: height is always one site height; rows are indexed by
/// their y coordinate (row `i` spans `y ∈ [i, i+1)`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Row {
    /// Leftmost site x of the row.
    pub x: i32,
    /// Row width in sites.
    pub width: i32,
}

impl Row {
    /// Creates a row starting at site `x` with `width` sites.
    ///
    /// # Panics
    ///
    /// Panics if `width` is negative.
    pub fn new(x: i32, width: i32) -> Self {
        assert!(width >= 0, "row width must be non-negative");
        Self { x, width }
    }

    /// Exclusive right end of the row.
    pub const fn right(&self) -> i32 {
        self.x + self.width
    }
}

/// A maximal unblocked run of sites on one row.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Segment {
    /// Row index (= y coordinate of the segment's bottom edge).
    pub row: i32,
    /// Leftmost site x of the segment.
    pub x: i32,
    /// Segment width in sites.
    pub width: i32,
}

impl Segment {
    /// Exclusive right end of the segment.
    pub const fn right(&self) -> i32 {
        self.x + self.width
    }

    /// True if the x-range `[x0, x1)` lies inside the segment.
    pub const fn contains_span(&self, x0: i32, x1: i32) -> bool {
        self.x <= x0 && x1 <= self.right()
    }

    /// The segment's footprint as a rectangle.
    pub const fn rect(&self) -> SiteRect {
        SiteRect {
            x: self.x,
            y: self.row,
            w: self.width,
            h: 1,
        }
    }
}

/// The floorplan: rows, static blockages, and the derived segment table.
///
/// Segments are derived once at construction from the rows minus the union
/// of fixed-cell and blockage footprints, then never change: fixed objects
/// do not move during legalization.
///
/// # Examples
///
/// ```
/// use mrl_db::Floorplan;
/// use mrl_geom::SiteRect;
///
/// // 3 rows of 20 sites with a 4-site blockage splitting row 1.
/// let fp = Floorplan::uniform(3, 20, &[SiteRect::new(8, 1, 4, 1)])?;
/// assert_eq!(fp.segments_in_row(0).len(), 1);
/// assert_eq!(fp.segments_in_row(1).len(), 2);
/// # Ok::<(), mrl_db::DbError>(())
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Floorplan {
    rows: Vec<Row>,
    blockages: Vec<SiteRect>,
    parity: RailParity,
    segments: Vec<Segment>,
    /// Per row, the range of indices into `segments`.
    row_ranges: Vec<Range<u32>>,
    /// Bounding box of all rows, computed once: rows never change, and
    /// the legalizer asks for it on every placement attempt.
    bounds: SiteRect,
}

impl Floorplan {
    /// Builds a floorplan from rows (row `i` is at y = `i`) and blocked
    /// rectangles, using the default rail parity (row 0 bottom = VDD).
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Invalid`] if a blockage lies outside every row it
    /// vertically intersects would allow — blockages may extend past row
    /// boundaries, but a floorplan with zero rows is rejected.
    pub fn new(rows: Vec<Row>, blockages: Vec<SiteRect>) -> Result<Self, DbError> {
        Self::with_parity(rows, blockages, RailParity::new(PowerRail::Vdd))
    }

    /// Like [`Floorplan::new`] with an explicit rail parity scheme.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Invalid`] if `rows` is empty.
    pub fn with_parity(
        rows: Vec<Row>,
        blockages: Vec<SiteRect>,
        parity: RailParity,
    ) -> Result<Self, DbError> {
        if rows.is_empty() {
            return Err(DbError::Invalid("floorplan has no rows".into()));
        }
        let (segments, row_ranges) = derive_segments(&rows, &blockages);
        let x0 = rows.iter().map(|r| r.x).min().unwrap_or(0);
        let x1 = rows.iter().map(|r| r.right()).max().unwrap_or(0);
        let bounds = SiteRect::new(x0, 0, x1 - x0, rows.len() as i32);
        Ok(Self {
            rows,
            blockages,
            parity,
            segments,
            row_ranges,
            bounds,
        })
    }

    /// Convenience constructor: `num_rows` identical rows of `row_width`
    /// sites starting at x = 0.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Invalid`] if `num_rows` is zero.
    pub fn uniform(num_rows: i32, row_width: i32, blockages: &[SiteRect]) -> Result<Self, DbError> {
        let rows = (0..num_rows).map(|_| Row::new(0, row_width)).collect();
        Self::new(rows, blockages.to_vec())
    }

    /// Number of rows.
    pub fn num_rows(&self) -> i32 {
        self.rows.len() as i32
    }

    /// The rows, indexed by row index.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// The static blockages the segments were derived from.
    pub fn blockages(&self) -> &[SiteRect] {
        &self.blockages
    }

    /// The rail parity scheme.
    pub const fn parity(&self) -> RailParity {
        self.parity
    }

    /// All segments, grouped by row in ascending (row, x) order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Segments of one row in ascending x order (empty slice if `row` is out
    /// of range).
    pub fn segments_in_row(&self, row: i32) -> &[Segment] {
        match usize::try_from(row)
            .ok()
            .and_then(|r| self.row_ranges.get(r))
        {
            Some(range) => &self.segments[range.start as usize..range.end as usize],
            None => &[],
        }
    }

    /// Index into [`Floorplan::segments`] of the first segment of `row`.
    pub fn row_segment_base(&self, row: i32) -> Option<usize> {
        usize::try_from(row)
            .ok()
            .and_then(|r| self.row_ranges.get(r))
            .map(|range| range.start as usize)
    }

    /// The segment of `row` whose sites include x (i.e. `x ∈ [seg.x,
    /// seg.right())`), if any.
    pub fn segment_at(&self, row: i32, x: i32) -> Option<&Segment> {
        let segs = self.segments_in_row(row);
        let idx = segs.partition_point(|s| s.right() <= x);
        segs.get(idx).filter(|s| s.x <= x)
    }

    /// The segment of `row` that fully contains the span `[x0, x1)`, if any.
    pub fn segment_containing_span(&self, row: i32, x0: i32, x1: i32) -> Option<&Segment> {
        self.segment_at(row, x0).filter(|s| s.contains_span(x0, x1))
    }

    /// Whether a cell of the given height and native rail may have its
    /// bottom edge on `row`.
    pub fn rail_compatible(&self, rail: PowerRail, height: i32, row: i32) -> bool {
        self.parity.cell_fits_row(rail, height, row)
    }

    /// Bounding box of all rows.
    pub const fn bounds(&self) -> SiteRect {
        self.bounds
    }

    /// Total unblocked placement capacity in sites.
    pub fn capacity(&self) -> i64 {
        self.segments.iter().map(|s| i64::from(s.width)).sum()
    }
}

/// Splits each row at blockage footprints into maximal free runs.
fn derive_segments(rows: &[Row], blockages: &[SiteRect]) -> (Vec<Segment>, Vec<Range<u32>>) {
    let mut segments = Vec::new();
    let mut row_ranges = Vec::with_capacity(rows.len());
    for (row_idx, row) in rows.iter().enumerate() {
        let row_idx = row_idx as i32;
        let start = segments.len() as u32;
        // Collect blocked x-intervals intersecting this row.
        let mut blocked: Vec<(i32, i32)> = blockages
            .iter()
            .filter(|b| b.y < row_idx + 1 && row_idx < b.top() && b.w > 0)
            .map(|b| (b.x.max(row.x), b.right().min(row.right())))
            .filter(|(a, b)| a < b)
            .collect();
        blocked.sort_unstable();
        let mut cursor = row.x;
        for (bx0, bx1) in blocked {
            if bx0 > cursor {
                segments.push(Segment {
                    row: row_idx,
                    x: cursor,
                    width: bx0 - cursor,
                });
            }
            cursor = cursor.max(bx1);
        }
        if cursor < row.right() {
            segments.push(Segment {
                row: row_idx,
                x: cursor,
                width: row.right() - cursor,
            });
        }
        row_ranges.push(start..segments.len() as u32);
    }
    (segments, row_ranges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unblocked_row_is_one_segment() {
        let fp = Floorplan::uniform(2, 30, &[]).unwrap();
        assert_eq!(fp.segments().len(), 2);
        assert_eq!(
            fp.segments_in_row(0),
            &[Segment {
                row: 0,
                x: 0,
                width: 30
            }]
        );
    }

    #[test]
    fn blockage_splits_row() {
        let fp = Floorplan::uniform(1, 20, &[SiteRect::new(5, 0, 3, 1)]).unwrap();
        let segs = fp.segments_in_row(0);
        assert_eq!(segs.len(), 2);
        assert_eq!(
            segs[0],
            Segment {
                row: 0,
                x: 0,
                width: 5
            }
        );
        assert_eq!(
            segs[1],
            Segment {
                row: 0,
                x: 8,
                width: 12
            }
        );
    }

    #[test]
    fn multi_row_blockage_splits_every_spanned_row() {
        let fp = Floorplan::uniform(4, 10, &[SiteRect::new(0, 1, 4, 2)]).unwrap();
        assert_eq!(fp.segments_in_row(0).len(), 1);
        assert_eq!(
            fp.segments_in_row(1),
            &[Segment {
                row: 1,
                x: 4,
                width: 6
            }]
        );
        assert_eq!(
            fp.segments_in_row(2),
            &[Segment {
                row: 2,
                x: 4,
                width: 6
            }]
        );
        assert_eq!(fp.segments_in_row(3).len(), 1);
    }

    #[test]
    fn blockage_at_row_edge_leaves_single_segment() {
        let fp = Floorplan::uniform(1, 10, &[SiteRect::new(0, 0, 3, 1)]).unwrap();
        assert_eq!(
            fp.segments_in_row(0),
            &[Segment {
                row: 0,
                x: 3,
                width: 7
            }]
        );
    }

    #[test]
    fn fully_blocked_row_has_no_segments() {
        let fp = Floorplan::uniform(1, 10, &[SiteRect::new(0, 0, 10, 1)]).unwrap();
        assert!(fp.segments_in_row(0).is_empty());
    }

    #[test]
    fn overlapping_blockages_merge() {
        let fp = Floorplan::uniform(
            1,
            20,
            &[SiteRect::new(2, 0, 5, 1), SiteRect::new(4, 0, 6, 1)],
        )
        .unwrap();
        let segs = fp.segments_in_row(0);
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].width, 2);
        assert_eq!(segs[1].x, 10);
    }

    #[test]
    fn segment_at_finds_containing_segment() {
        let fp = Floorplan::uniform(1, 20, &[SiteRect::new(5, 0, 3, 1)]).unwrap();
        assert_eq!(fp.segment_at(0, 0).unwrap().x, 0);
        assert_eq!(fp.segment_at(0, 4).unwrap().x, 0);
        assert!(fp.segment_at(0, 5).is_none());
        assert!(fp.segment_at(0, 7).is_none());
        assert_eq!(fp.segment_at(0, 8).unwrap().x, 8);
        assert!(fp.segment_at(0, 20).is_none());
        assert!(fp.segment_at(1, 0).is_none());
        assert!(fp.segment_at(-1, 0).is_none());
    }

    #[test]
    fn segment_containing_span_requires_full_containment() {
        let fp = Floorplan::uniform(1, 20, &[SiteRect::new(5, 0, 3, 1)]).unwrap();
        assert!(fp.segment_containing_span(0, 1, 5).is_some());
        assert!(fp.segment_containing_span(0, 3, 6).is_none());
        assert!(fp.segment_containing_span(0, 8, 20).is_some());
    }

    #[test]
    fn capacity_excludes_blockages() {
        let fp = Floorplan::uniform(2, 10, &[SiteRect::new(0, 0, 4, 1)]).unwrap();
        assert_eq!(fp.capacity(), 16);
    }

    #[test]
    fn bounds_cover_all_rows() {
        let rows = vec![Row::new(2, 10), Row::new(0, 5)];
        let fp = Floorplan::new(rows, vec![]).unwrap();
        assert_eq!(fp.bounds(), SiteRect::new(0, 0, 12, 2));
    }

    #[test]
    fn empty_floorplan_rejected() {
        assert!(matches!(
            Floorplan::uniform(0, 10, &[]),
            Err(DbError::Invalid(_))
        ));
    }

    #[test]
    fn rail_compatibility_delegates_to_parity() {
        let fp = Floorplan::uniform(4, 10, &[]).unwrap();
        assert!(fp.rail_compatible(PowerRail::Vdd, 2, 0));
        assert!(!fp.rail_compatible(PowerRail::Vdd, 2, 1));
        assert!(fp.rail_compatible(PowerRail::Vdd, 1, 1));
    }
}
