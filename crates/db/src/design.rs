//! The design container: floorplan + cells + netlist + global-placement
//! input.

use crate::{
    Cell, CellId, CellKind, DbError, FenceRegion, Floorplan, NetId, Netlist, PinLocation, RegionId,
    Row,
};
use mrl_geom::{PowerRail, SiteGrid, SiteRect};

/// An immutable legalization problem instance: the floorplan, all cell
/// instances, the netlist, and the (possibly overlapping and off-grid)
/// global-placement input positions.
///
/// Build one with [`DesignBuilder`]. Input positions of movable cells are
/// fractional site coordinates — a global placer is not bound to the site
/// grid; the legalizer's whole job is to snap cells onto it with minimal
/// total displacement.
#[derive(Clone, Debug)]
pub struct Design {
    name: String,
    grid: SiteGrid,
    floorplan: Floorplan,
    cells: Vec<Cell>,
    input_pos: Vec<(f64, f64)>,
    netlist: Netlist,
    regions: Vec<FenceRegion>,
    cell_region: Vec<Option<RegionId>>,
    /// Total area of the movable cells, kept current by the in-place
    /// mutators so admission checks and [`Design::density`] are O(1).
    movable_area: i64,
}

impl Design {
    /// The design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The site/micron unit system.
    pub const fn grid(&self) -> SiteGrid {
        self.grid
    }

    /// The floorplan (rows, blockages, segments).
    pub fn floorplan(&self) -> &Floorplan {
        &self.floorplan
    }

    /// All cell instances (movable, fixed, blockage).
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// The cell with the given id.
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.index()]
    }

    /// Number of cell instances of any kind.
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// Ids of the movable cells, in table order.
    pub fn movable_cells(&self) -> impl Iterator<Item = CellId> + '_ {
        self.cells
            .iter()
            .enumerate()
            .filter(|(_, c)| c.is_movable())
            .map(|(i, _)| CellId::from_usize(i))
    }

    /// Number of movable cells.
    pub fn num_movable(&self) -> usize {
        self.cells.iter().filter(|c| c.is_movable()).count()
    }

    /// The global-placement input position of a cell (fractional site
    /// units, lower-left corner). For fixed cells this is their pre-placed
    /// position.
    pub fn input_position(&self, id: CellId) -> (f64, f64) {
        self.input_pos[id.index()]
    }

    /// The netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// A copy of this design with the movable cells' input positions
    /// replaced — how a global placer hands its result to the legalizer.
    /// Fixed cells keep their original positions.
    ///
    /// # Panics
    ///
    /// Panics if `positions` is not one entry per cell of the design.
    pub fn with_input_positions(&self, positions: Vec<(f64, f64)>) -> Design {
        assert_eq!(
            positions.len(),
            self.cells.len(),
            "one position per cell required"
        );
        let mut out = self.clone();
        for (i, p) in positions.into_iter().enumerate() {
            if out.cells[i].is_movable() {
                out.input_pos[i] = p;
            }
        }
        out
    }

    /// Replaces one movable cell's input position in place — the ECO
    /// engine's per-edit variant of [`with_input_positions`]
    /// (which clones the whole design).
    ///
    /// # Panics
    ///
    /// Panics if the cell is not movable.
    ///
    /// [`with_input_positions`]: Design::with_input_positions
    pub fn set_input_position(&mut self, cell: CellId, x: f64, y: f64) {
        assert!(
            self.cells[cell.index()].is_movable(),
            "set_input_position on fixed cell {cell}"
        );
        self.input_pos[cell.index()] = (x, y);
    }

    /// Appends a movable cell to a finished design — the ECO *insert*
    /// primitive (buffer insertion, decap fill). The cell joins the end of
    /// the table, so existing [`CellId`]s stay valid; pair with
    /// [`PlacementState::grow`](crate::PlacementState::grow). The new cell
    /// carries no pins and no fence-region membership.
    ///
    /// # Errors
    ///
    /// [`DbError::Invalid`] under the same rules [`DesignBuilder::finish`]
    /// enforces: non-positive dimensions, taller than the floorplan, wider
    /// than every row, or total movable area exceeding capacity.
    pub fn append_movable(
        &mut self,
        name: impl Into<String>,
        width: i32,
        height: i32,
        rail: PowerRail,
        input: (f64, f64),
    ) -> Result<CellId, DbError> {
        let name = name.into();
        if width <= 0 || height <= 0 {
            return Err(DbError::Invalid(format!(
                "cell {name}: dimensions {width}x{height} must be positive"
            )));
        }
        let area = i64::from(width) * i64::from(height);
        self.check_movable_fits(&name, width, height, area)?;
        let id = CellId::from_usize(self.cells.len());
        self.cells
            .push(Cell::new(name, width, height, rail, CellKind::Movable));
        self.input_pos.push(input);
        self.cell_region.push(None);
        // The cell → pin index stays as is: the new cell carries no pins,
        // and `pins_of_cell` answers `&[]` past the end of the index.
        self.movable_area += area;
        Ok(id)
    }

    /// Resizes a movable cell in place — the ECO *resize* primitive (gate
    /// sizing). The cell must be re-legalized afterwards; callers unplace
    /// it first (a placed cell's footprint lives in the occupancy index at
    /// its old width).
    ///
    /// # Errors
    ///
    /// [`DbError::Invalid`] if the cell is fixed, the width is not
    /// positive, wider than every row, or the grown area exceeds capacity.
    pub fn set_cell_width(&mut self, cell: CellId, width: i32) -> Result<(), DbError> {
        let c = &self.cells[cell.index()];
        if !c.is_movable() {
            return Err(DbError::Invalid(format!("cell {} is fixed", c.name())));
        }
        if width <= 0 {
            return Err(DbError::Invalid(format!(
                "cell {}: width {width} must be positive",
                c.name()
            )));
        }
        let name = c.name().to_string();
        let grown = i64::from(width - c.width()) * i64::from(c.height());
        self.check_movable_fits(&name, width, c.height(), grown.max(0))?;
        self.cells[cell.index()].set_width(width);
        self.movable_area += grown;
        Ok(())
    }

    /// Drops cells appended via [`append_movable`] from the end of the
    /// table — the rollback of a rejected ECO insert. Pair with
    /// [`PlacementState::truncate`](crate::PlacementState::truncate).
    ///
    /// # Errors
    ///
    /// [`DbError::Invalid`] if `len` exceeds the current table, or a
    /// dropped cell is fixed or carries pins (only pin-free appended
    /// movables can be retracted without invalidating the netlist).
    ///
    /// [`append_movable`]: Design::append_movable
    pub fn truncate_cells(&mut self, len: usize) -> Result<(), DbError> {
        if len > self.cells.len() {
            return Err(DbError::Invalid(format!(
                "truncate_cells({len}) exceeds table of {}",
                self.cells.len()
            )));
        }
        for i in len..self.cells.len() {
            let id = CellId::from_usize(i);
            if !self.cells[i].is_movable() {
                return Err(DbError::Invalid(format!(
                    "truncate_cells would drop fixed cell {}",
                    self.cells[i].name()
                )));
            }
            if !self.netlist.pins_of_cell(id).is_empty() {
                return Err(DbError::Invalid(format!(
                    "truncate_cells would drop cell {} which carries pins",
                    self.cells[i].name()
                )));
            }
        }
        let dropped: i64 = self.cells[len..].iter().map(Cell::area).sum();
        self.cells.truncate(len);
        self.input_pos.truncate(len);
        self.cell_region.truncate(len);
        // Every dropped cell is pin-free, so its index entry (if it has one)
        // is empty already and the cell → pin index needs no rebuild.
        self.movable_area -= dropped;
        Ok(())
    }

    /// Shared validation for the in-place mutators: a movable cell of the
    /// given dimensions must fit the floorplan, and `extra_area` more
    /// movable area must not overflow capacity.
    fn check_movable_fits(
        &self,
        name: &str,
        width: i32,
        height: i32,
        extra_area: i64,
    ) -> Result<(), DbError> {
        if height > self.floorplan.num_rows() {
            return Err(DbError::Invalid(format!(
                "cell {name} ({height} rows) is taller than the floorplan ({} rows)",
                self.floorplan.num_rows()
            )));
        }
        let max_row_width = self
            .floorplan
            .rows()
            .iter()
            .map(|r| r.width)
            .max()
            .unwrap_or(0);
        if width > max_row_width {
            return Err(DbError::Invalid(format!(
                "cell {name} ({width} sites) is wider than every row"
            )));
        }
        if self.movable_area + extra_area > self.floorplan.capacity() {
            return Err(DbError::Invalid(format!(
                "movable area {} exceeds placement capacity {}",
                self.movable_area + extra_area,
                self.floorplan.capacity()
            )));
        }
        Ok(())
    }

    /// The fence regions of the design.
    pub fn regions(&self) -> &[FenceRegion] {
        &self.regions
    }

    /// The fence region with the given id.
    pub fn region(&self, id: RegionId) -> &FenceRegion {
        &self.regions[id.index()]
    }

    /// The fence region a cell is assigned to, if any.
    pub fn region_of(&self, cell: CellId) -> Option<RegionId> {
        self.cell_region[cell.index()]
    }

    /// True if placing a cell of `region` membership at `rect` satisfies
    /// the fence constraints: members fully inside their region, everyone
    /// else fully outside every region.
    pub fn fence_allows(&self, region: Option<RegionId>, rect: &mrl_geom::SiteRect) -> bool {
        match region {
            Some(r) => self.regions[r.index()].covers(rect),
            None => self.regions.iter().all(|fr| !fr.overlaps(rect)),
        }
    }

    /// Movable cell area divided by unblocked placement capacity.
    pub fn density(&self) -> f64 {
        let cap = self.floorplan.capacity();
        if cap == 0 {
            f64::INFINITY
        } else {
            self.movable_area as f64 / cap as f64
        }
    }

    /// Half-perimeter wirelength of the whole netlist in microns, given
    /// per-cell positions in fractional site units. `pos` must yield the
    /// lower-left corner of every cell that carries pins; unplaced cells may
    /// fall back to their input positions — callers choose.
    pub fn hpwl_um<F>(&self, mut pos: F) -> f64
    where
        F: FnMut(CellId) -> (f64, f64),
    {
        let grid = self.grid;
        let mut total = 0.0;
        for net_idx in 0..self.netlist.num_nets() {
            let net = NetId::from_usize(net_idx);
            // HPWL is separable in x and y, so convert each axis to microns.
            let mut min_x = f64::INFINITY;
            let mut max_x = f64::NEG_INFINITY;
            let mut min_y = f64::INFINITY;
            let mut max_y = f64::NEG_INFINITY;
            let pins = self.netlist.net(net).pins();
            if pins.len() < 2 {
                continue;
            }
            for &p in pins {
                let (x, y) = match self.netlist.pin(p).location {
                    PinLocation::Fixed { x, y } => (x, y),
                    PinLocation::OnCell { cell, dx, dy } => {
                        let (cx, cy) = pos(cell);
                        (cx + dx, cy + dy)
                    }
                };
                min_x = min_x.min(x);
                max_x = max_x.max(x);
                min_y = min_y.min(y);
                max_y = max_y.max(y);
            }
            total +=
                (max_x - min_x) * grid.site_width_um() + (max_y - min_y) * grid.row_height_um();
        }
        total
    }
}

/// Incremental builder for [`Design`].
///
/// # Examples
///
/// ```
/// use mrl_db::DesignBuilder;
///
/// let mut b = DesignBuilder::new(4, 40);
/// let inv = b.add_cell("inv1", 2, 1);
/// let ff = b.add_cell("ff1", 2, 2);
/// b.set_input_position(inv, 3.4, 1.2);
/// b.set_input_position(ff, 10.0, 2.0);
/// let net = b.add_net("n1");
/// b.add_cell_pin(net, inv, 0.5, 0.5);
/// b.add_cell_pin(net, ff, 1.0, 1.0);
/// let design = b.finish()?;
/// assert_eq!(design.num_movable(), 2);
/// # Ok::<(), mrl_db::DbError>(())
/// ```
#[derive(Clone, Debug)]
pub struct DesignBuilder {
    name: String,
    grid: SiteGrid,
    rows: Vec<Row>,
    blockages: Vec<SiteRect>,
    parity: mrl_geom::RailParity,
    cells: Vec<Cell>,
    input_pos: Vec<(f64, f64)>,
    netlist: Netlist,
    regions: Vec<FenceRegion>,
    cell_region: Vec<Option<RegionId>>,
}

impl DesignBuilder {
    /// Starts a builder with `num_rows` uniform rows of `row_width` sites
    /// and the ISPD2015 unit system.
    pub fn new(num_rows: i32, row_width: i32) -> Self {
        Self {
            name: "design".into(),
            grid: SiteGrid::ispd2015(),
            rows: (0..num_rows.max(0))
                .map(|_| Row::new(0, row_width))
                .collect(),
            blockages: Vec::new(),
            parity: mrl_geom::RailParity::new(PowerRail::Vdd),
            cells: Vec::new(),
            input_pos: Vec::new(),
            netlist: Netlist::new(),
            regions: Vec::new(),
            cell_region: Vec::new(),
        }
    }

    /// Starts a builder with explicit rows.
    pub fn with_rows(rows: Vec<Row>) -> Self {
        Self {
            rows,
            ..Self::new(0, 0)
        }
    }

    /// Sets the design name.
    pub fn set_name(&mut self, name: impl Into<String>) -> &mut Self {
        self.name = name.into();
        self
    }

    /// Sets the site/micron unit system.
    pub fn set_grid(&mut self, grid: SiteGrid) -> &mut Self {
        self.grid = grid;
        self
    }

    /// Sets the rail parity scheme (default: row 0 bottom = VDD).
    pub fn set_parity(&mut self, parity: mrl_geom::RailParity) -> &mut Self {
        self.parity = parity;
        self
    }

    /// Adds a movable cell with default (VDD-bottom) rail polarity; its
    /// input position defaults to the floorplan origin until
    /// [`DesignBuilder::set_input_position`] is called.
    pub fn add_cell(&mut self, name: impl Into<String>, width: i32, height: i32) -> CellId {
        self.add_cell_with_rail(name, width, height, PowerRail::Vdd)
    }

    /// Adds a movable cell with an explicit native bottom-rail polarity
    /// (meaningful for even-height cells, which cannot flip).
    pub fn add_cell_with_rail(
        &mut self,
        name: impl Into<String>,
        width: i32,
        height: i32,
        rail: PowerRail,
    ) -> CellId {
        let id = CellId::from_usize(self.cells.len());
        self.cells
            .push(Cell::new(name, width, height, rail, CellKind::Movable));
        self.input_pos.push((0.0, 0.0));
        self.cell_region.push(None);
        id
    }

    /// Adds a fixed macro at an integral position; its footprint blocks
    /// placement sites.
    pub fn add_fixed(&mut self, name: impl Into<String>, footprint: SiteRect) -> CellId {
        let id = CellId::from_usize(self.cells.len());
        self.cells.push(Cell::new(
            name,
            footprint.w,
            footprint.h,
            PowerRail::Vdd,
            CellKind::Fixed,
        ));
        self.input_pos
            .push((f64::from(footprint.x), f64::from(footprint.y)));
        self.cell_region.push(None);
        self.blockages.push(footprint);
        id
    }

    /// Adds an anonymous placement blockage.
    pub fn add_blockage(&mut self, footprint: SiteRect) -> &mut Self {
        self.blockages.push(footprint);
        self
    }

    /// Sets a cell's global-placement input position (fractional site
    /// units, lower-left corner).
    pub fn set_input_position(&mut self, cell: CellId, x: f64, y: f64) -> &mut Self {
        self.input_pos[cell.index()] = (x, y);
        self
    }

    /// Adds a fence region: cells assigned to it (via
    /// [`DesignBuilder::assign_region`]) must be placed fully inside its
    /// rectangle union; all other cells must stay out of it.
    pub fn add_region(&mut self, name: impl Into<String>, rects: Vec<SiteRect>) -> RegionId {
        let id = RegionId::from_usize(self.regions.len());
        self.regions.push(FenceRegion::new(name, rects));
        id
    }

    /// Assigns a movable cell to a fence region.
    ///
    /// # Panics
    ///
    /// Panics if `region` does not belong to this builder.
    pub fn assign_region(&mut self, cell: CellId, region: RegionId) -> &mut Self {
        assert!(region.index() < self.regions.len(), "foreign region");
        self.cell_region[cell.index()] = Some(region);
        self
    }

    /// Adds an empty net.
    pub fn add_net(&mut self, name: impl Into<String>) -> NetId {
        self.netlist.add_net(name)
    }

    /// Adds a pin on a cell at an offset from the cell's lower-left corner.
    pub fn add_cell_pin(&mut self, net: NetId, cell: CellId, dx: f64, dy: f64) -> &mut Self {
        self.netlist
            .add_pin(net, PinLocation::OnCell { cell, dx, dy });
        self
    }

    /// Adds a fixed terminal pin at an absolute position.
    pub fn add_fixed_pin(&mut self, net: NetId, x: f64, y: f64) -> &mut Self {
        self.netlist.add_pin(net, PinLocation::Fixed { x, y });
        self
    }

    /// Finalizes the design.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Invalid`] if the floorplan has no rows, if any
    /// movable cell is taller than the floorplan or wider than the widest
    /// row, or if total movable area exceeds placement capacity.
    pub fn finish(self) -> Result<Design, DbError> {
        let mut netlist = self.netlist;
        netlist.rebuild_cell_index(self.cells.len());
        let floorplan = Floorplan::with_parity(self.rows, self.blockages, self.parity)?;
        let max_row_width = floorplan.rows().iter().map(|r| r.width).max().unwrap_or(0);
        for cell in self.cells.iter() {
            if !cell.is_movable() {
                continue;
            }
            if cell.height() > floorplan.num_rows() {
                return Err(DbError::Invalid(format!(
                    "cell {} ({} rows) is taller than the floorplan ({} rows)",
                    cell.name(),
                    cell.height(),
                    floorplan.num_rows()
                )));
            }
            if cell.width() > max_row_width {
                return Err(DbError::Invalid(format!(
                    "cell {} ({} sites) is wider than every row",
                    cell.name(),
                    cell.width()
                )));
            }
        }
        let movable_area: i64 = self
            .cells
            .iter()
            .filter(|c| c.is_movable())
            .map(Cell::area)
            .sum();
        if movable_area > floorplan.capacity() {
            return Err(DbError::Invalid(format!(
                "movable area {} exceeds placement capacity {}",
                movable_area,
                floorplan.capacity()
            )));
        }
        for (i, a) in self.regions.iter().enumerate() {
            for b in self.regions.iter().skip(i + 1) {
                for ra in a.rects() {
                    if b.rects().iter().any(|rb| rb.overlaps(ra)) {
                        return Err(DbError::Invalid(format!(
                            "fence regions {} and {} overlap",
                            a.name(),
                            b.name()
                        )));
                    }
                }
            }
        }
        Ok(Design {
            name: self.name,
            grid: self.grid,
            floorplan,
            cells: self.cells,
            input_pos: self.input_pos,
            netlist,
            regions: self.regions,
            cell_region: self.cell_region,
            movable_area,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_consistent_design() {
        let mut b = DesignBuilder::new(3, 20);
        b.set_name("tiny");
        let a = b.add_cell("a", 2, 1);
        let m = b.add_fixed("ram", SiteRect::new(10, 0, 5, 2));
        b.set_input_position(a, 1.5, 0.2);
        let d = b.finish().unwrap();
        assert_eq!(d.name(), "tiny");
        assert_eq!(d.num_cells(), 2);
        assert_eq!(d.num_movable(), 1);
        assert_eq!(d.input_position(a), (1.5, 0.2));
        assert_eq!(d.input_position(m), (10.0, 0.0));
        // The macro split rows 0 and 1 into two segments each.
        assert_eq!(d.floorplan().segments_in_row(0).len(), 2);
        assert_eq!(d.floorplan().segments_in_row(2).len(), 1);
        assert_eq!(d.movable_cells().collect::<Vec<_>>(), vec![a]);
    }

    #[test]
    fn density_counts_movable_area_only() {
        let mut b = DesignBuilder::new(1, 10);
        b.add_cell("a", 4, 1);
        b.add_fixed("m", SiteRect::new(8, 0, 2, 1));
        let d = b.finish().unwrap();
        // Capacity 8 after blockage; movable area 4.
        assert!((d.density() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn too_tall_cell_rejected() {
        let mut b = DesignBuilder::new(2, 10);
        b.add_cell("t", 1, 3);
        assert!(matches!(b.finish(), Err(DbError::Invalid(_))));
    }

    #[test]
    fn too_wide_cell_rejected() {
        let mut b = DesignBuilder::new(2, 10);
        b.add_cell("w", 11, 1);
        assert!(matches!(b.finish(), Err(DbError::Invalid(_))));
    }

    #[test]
    fn overfull_design_rejected() {
        let mut b = DesignBuilder::new(1, 4);
        b.add_cell("a", 3, 1);
        b.add_cell("b", 3, 1);
        assert!(matches!(b.finish(), Err(DbError::Invalid(_))));
    }

    #[test]
    fn hpwl_converts_axes_independently() {
        let mut b = DesignBuilder::new(2, 100);
        let a = b.add_cell("a", 1, 1);
        let c = b.add_cell("b", 1, 1);
        let n = b.add_net("n");
        b.add_cell_pin(n, a, 0.0, 0.0);
        b.add_cell_pin(n, c, 0.0, 0.0);
        let d = b.finish().unwrap();
        // Positions 10 sites apart in x and 1 row apart in y.
        let hpwl = d.hpwl_um(|id| if id == a { (0.0, 0.0) } else { (10.0, 1.0) });
        let g = d.grid();
        let expected = 10.0 * g.site_width_um() + 1.0 * g.row_height_um();
        assert!((hpwl - expected).abs() < 1e-9);
    }

    #[test]
    fn hpwl_includes_fixed_pins() {
        let mut b = DesignBuilder::new(1, 100);
        let a = b.add_cell("a", 1, 1);
        let n = b.add_net("n");
        b.add_cell_pin(n, a, 0.0, 0.0);
        b.add_fixed_pin(n, 50.0, 0.0);
        let d = b.finish().unwrap();
        let hpwl = d.hpwl_um(|_| (0.0, 0.0));
        assert!((hpwl - 50.0 * d.grid().site_width_um()).abs() < 1e-9);
    }
}
