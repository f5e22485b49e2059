//! Nets, pins, and half-perimeter wirelength.

use crate::{CellId, NetId, PinId};

/// Where a pin sits.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PinLocation {
    /// On a cell, at a fractional-site offset from the cell's lower-left
    /// corner (offsets stay fixed under vertical flips for simplicity; pin
    /// offsets are small relative to displacement so this does not affect
    /// any reported metric's shape).
    OnCell {
        /// Owning cell.
        cell: CellId,
        /// Offset from the cell origin, in fractional site widths.
        dx: f64,
        /// Offset from the cell origin, in fractional rows.
        dy: f64,
    },
    /// A fixed terminal (I/O pad) at an absolute position in fractional
    /// site units.
    Fixed {
        /// Absolute x in fractional site widths.
        x: f64,
        /// Absolute y in fractional rows.
        y: f64,
    },
}

/// A pin: one connection point of a net.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pin {
    /// The net this pin belongs to.
    pub net: NetId,
    /// Where the pin sits.
    pub location: PinLocation,
}

/// A net: a set of pins to be connected.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Net {
    name: String,
    pins: Vec<PinId>,
}

impl Net {
    /// Creates an empty net with a name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            pins: Vec::new(),
        }
    }

    /// The net name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Pins of the net.
    pub fn pins(&self) -> &[PinId] {
        &self.pins
    }

    /// Number of pins.
    pub fn degree(&self) -> usize {
        self.pins.len()
    }
}

/// The netlist: nets plus a flat pin table, with per-cell pin indices for
/// fast incremental wirelength queries.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Netlist {
    nets: Vec<Net>,
    pins: Vec<Pin>,
    /// The cell → pins index (built by `rebuild_cell_index`) in CSR form:
    /// cell `c`'s pins are `cell_pins[cell_pin_start[c]..cell_pin_start[c + 1]]`.
    cell_pin_start: Vec<u32>,
    cell_pins: Vec<PinId>,
}

impl Netlist {
    /// Creates an empty netlist.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an empty net and returns its id.
    pub fn add_net(&mut self, name: impl Into<String>) -> NetId {
        let id = NetId::from_usize(self.nets.len());
        self.nets.push(Net::new(name));
        id
    }

    /// Adds a pin to a net.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range.
    pub fn add_pin(&mut self, net: NetId, location: PinLocation) -> PinId {
        let id = PinId::from_usize(self.pins.len());
        self.pins.push(Pin { net, location });
        self.nets[net.index()].pins.push(id);
        id
    }

    /// All nets.
    pub fn nets(&self) -> &[Net] {
        &self.nets
    }

    /// All pins.
    pub fn pins(&self) -> &[Pin] {
        &self.pins
    }

    /// The net with the given id.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// The pin with the given id.
    pub fn pin(&self, id: PinId) -> &Pin {
        &self.pins[id.index()]
    }

    /// Number of nets.
    pub fn num_nets(&self) -> usize {
        self.nets.len()
    }

    /// Rebuilds the cell → pins index for `num_cells` cells. Call after all
    /// pins are added (the [`crate::DesignBuilder`] does this).
    pub fn rebuild_cell_index(&mut self, num_cells: usize) {
        // Counting sort by cell: count, prefix-sum, then scatter in pin
        // order so each cell's pins stay ascending.
        let mut start = vec![0u32; num_cells + 1];
        for pin in &self.pins {
            if let PinLocation::OnCell { cell, .. } = pin.location {
                start[cell.index() + 1] += 1;
            }
        }
        for c in 0..num_cells {
            start[c + 1] += start[c];
        }
        let mut next = start.clone();
        let mut pins = vec![PinId::new(0); start[num_cells] as usize];
        for (i, pin) in self.pins.iter().enumerate() {
            if let PinLocation::OnCell { cell, .. } = pin.location {
                let slot = &mut next[cell.index()];
                pins[*slot as usize] = PinId::from_usize(i);
                *slot += 1;
            }
        }
        self.cell_pin_start = start;
        self.cell_pins = pins;
    }

    /// Pins on a cell (empty if the index was not rebuilt, or for a cell
    /// past its end, such as one appended to a finished design).
    pub fn pins_of_cell(&self, cell: CellId) -> &[PinId] {
        let c = cell.index();
        match (self.cell_pin_start.get(c), self.cell_pin_start.get(c + 1)) {
            (Some(&a), Some(&b)) => &self.cell_pins[a as usize..b as usize],
            _ => &[],
        }
    }

    /// Nets touching a cell (deduplicated, order unspecified).
    pub fn nets_of_cell(&self, cell: CellId) -> Vec<NetId> {
        let mut nets: Vec<NetId> = self
            .pins_of_cell(cell)
            .iter()
            .map(|&p| self.pin(p).net)
            .collect();
        nets.sort_unstable();
        nets.dedup();
        nets
    }

    /// Half-perimeter wirelength of one net given a pin-position resolver
    /// (fractional site units). Returns 0 for nets with fewer than 2 pins.
    pub fn net_hpwl<F>(&self, net: NetId, mut pin_pos: F) -> f64
    where
        F: FnMut(&Pin) -> (f64, f64),
    {
        let pins = self.net(net).pins();
        if pins.len() < 2 {
            return 0.0;
        }
        let mut min_x = f64::INFINITY;
        let mut max_x = f64::NEG_INFINITY;
        let mut min_y = f64::INFINITY;
        let mut max_y = f64::NEG_INFINITY;
        for &p in pins {
            let (x, y) = pin_pos(self.pin(p));
            min_x = min_x.min(x);
            max_x = max_x.max(x);
            min_y = min_y.min(y);
            max_y = max_y.max(y);
        }
        (max_x - min_x) + (max_y - min_y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resolver(pin: &Pin) -> (f64, f64) {
        match pin.location {
            PinLocation::Fixed { x, y } => (x, y),
            PinLocation::OnCell { dx, dy, .. } => (dx, dy), // cells "at origin"
        }
    }

    #[test]
    fn add_net_and_pins() {
        let mut nl = Netlist::new();
        let n = nl.add_net("n1");
        nl.add_pin(n, PinLocation::Fixed { x: 0.0, y: 0.0 });
        nl.add_pin(n, PinLocation::Fixed { x: 3.0, y: 4.0 });
        assert_eq!(nl.num_nets(), 1);
        assert_eq!(nl.net(n).degree(), 2);
        assert_eq!(nl.net(n).name(), "n1");
    }

    #[test]
    fn hpwl_is_half_perimeter_of_bbox() {
        let mut nl = Netlist::new();
        let n = nl.add_net("n");
        nl.add_pin(n, PinLocation::Fixed { x: 1.0, y: 1.0 });
        nl.add_pin(n, PinLocation::Fixed { x: 4.0, y: 5.0 });
        nl.add_pin(n, PinLocation::Fixed { x: 2.0, y: 3.0 });
        assert_eq!(nl.net_hpwl(n, resolver), 3.0 + 4.0);
    }

    #[test]
    fn degenerate_nets_have_zero_hpwl() {
        let mut nl = Netlist::new();
        let n0 = nl.add_net("empty");
        let n1 = nl.add_net("single");
        nl.add_pin(n1, PinLocation::Fixed { x: 9.0, y: 9.0 });
        assert_eq!(nl.net_hpwl(n0, resolver), 0.0);
        assert_eq!(nl.net_hpwl(n1, resolver), 0.0);
    }

    #[test]
    fn cell_index_maps_pins_and_nets() {
        let mut nl = Netlist::new();
        let n0 = nl.add_net("a");
        let n1 = nl.add_net("b");
        let c0 = CellId::new(0);
        let c1 = CellId::new(1);
        nl.add_pin(
            n0,
            PinLocation::OnCell {
                cell: c0,
                dx: 0.0,
                dy: 0.0,
            },
        );
        nl.add_pin(
            n1,
            PinLocation::OnCell {
                cell: c0,
                dx: 1.0,
                dy: 0.0,
            },
        );
        nl.add_pin(
            n1,
            PinLocation::OnCell {
                cell: c1,
                dx: 0.0,
                dy: 0.0,
            },
        );
        nl.rebuild_cell_index(2);
        assert_eq!(nl.pins_of_cell(c0).len(), 2);
        assert_eq!(nl.pins_of_cell(c1).len(), 1);
        assert_eq!(nl.nets_of_cell(c0), vec![n0, n1]);
        assert_eq!(nl.nets_of_cell(c1), vec![n1]);
    }

    #[test]
    fn pins_of_cell_without_index_is_empty() {
        let nl = Netlist::new();
        assert!(nl.pins_of_cell(CellId::new(0)).is_empty());
    }
}
