//! `Design`'s in-place mutators keep a running movable-area total and leave
//! the cell → pin index alone. This checks them against an O(cells)
//! recomputation over random sequences of `set_cell_width`,
//! `append_movable` and `truncate_cells`, including calls that must be
//! rejected for capacity, row width, floorplan height, fixed cells or pins.

use mrl_db::{CellId, Design, DesignBuilder, PinId};
use mrl_geom::{PowerRail, SiteRect};
use proptest::prelude::*;

const ROWS: i32 = 3;
const ROW_WIDTH: i32 = 20;
/// Three rows of 20 sites minus the 4x2 macro.
const CAPACITY: i64 = 52;

/// One cell as the oracle sees it.
#[derive(Clone, Debug)]
struct Cell {
    width: i32,
    height: i32,
    movable: bool,
    pins: usize,
    appended: bool,
}

impl Cell {
    fn area(&self) -> i64 {
        i64::from(self.width) * i64::from(self.height)
    }
}

/// A design with one fixed macro and the given movable `(width, height,
/// pins)` cells, and the oracle's copy of its cell table.
fn build(cells: &[(i32, i32, usize)]) -> (Design, Vec<Cell>) {
    let mut b = DesignBuilder::new(ROWS, ROW_WIDTH);
    b.add_fixed("macro", SiteRect::new(16, 0, 4, 2));
    let mut model = vec![Cell {
        width: 4,
        height: 2,
        movable: false,
        pins: 0,
        appended: false,
    }];
    let net = b.add_net("n");
    for (i, &(width, height, pins)) in cells.iter().enumerate() {
        let id = b.add_cell(format!("c{i}"), width, height);
        for p in 0..pins {
            b.add_cell_pin(net, id, 0.5 * p as f64, 0.5);
        }
        model.push(Cell {
            width,
            height,
            movable: true,
            pins,
            appended: false,
        });
    }
    (b.finish().unwrap(), model)
}

/// The admission rule, recomputed from the whole table: a movable cell of
/// `width` x `height` fits the floorplan, and `extra` more movable area
/// stays within capacity.
fn fits(model: &[Cell], width: i32, height: i32, extra: i64) -> bool {
    let area: i64 = model.iter().filter(|c| c.movable).map(Cell::area).sum();
    height <= ROWS && width <= ROW_WIDTH && area + extra <= CAPACITY
}

proptest! {
    #[test]
    fn admission_matches_a_full_recomputation(
        cells in collection::vec((1i32..6, 1i32..3, 0usize..3), 1..6),
        ops in collection::vec((0u8..3, 0usize..64, -1i32..ROW_WIDTH + 3, 0i32..ROWS + 2), 1..40),
    ) {
        // The first cell always carries a pin, so truncating it must fail.
        let mut cells = cells;
        cells[0].2 = cells[0].2.max(1);
        let (mut design, mut model) = build(&cells);
        prop_assert_eq!(design.floorplan().capacity(), CAPACITY);
        let original: Vec<Vec<PinId>> = (0..model.len())
            .map(|i| design.netlist().pins_of_cell(CellId::from_usize(i)).to_vec())
            .collect();

        for (step, &(kind, pick, width, height)) in ops.iter().enumerate() {
            match kind {
                0 => {
                    let i = pick % model.len();
                    let c = &model[i];
                    let grown = i64::from(width - c.width) * i64::from(c.height);
                    let expect = c.movable && width > 0 && fits(&model, width, c.height, grown.max(0));
                    let got = design.set_cell_width(CellId::from_usize(i), width);
                    prop_assert_eq!(got.is_ok(), expect, "step {}: resize cell {} to {}: {:?}", step, i, width, got);
                    if expect {
                        model[i].width = width;
                    }
                }
                1 => {
                    let expect = width > 0 && height > 0 && fits(&model, width, height, i64::from(width) * i64::from(height));
                    let rail = if step % 2 == 0 { PowerRail::Vdd } else { PowerRail::Vss };
                    let got = design.append_movable(format!("a{step}"), width, height, rail, (1.0, 0.0));
                    prop_assert_eq!(got.is_ok(), expect, "step {}: append {}x{}: {:?}", step, width, height, got);
                    if let Ok(id) = got {
                        prop_assert_eq!(id.index(), model.len());
                        model.push(Cell { width, height, movable: true, pins: 0, appended: true });
                    }
                }
                _ => {
                    let len = pick % (model.len() + 2);
                    let expect = len <= model.len()
                        && model[len.min(model.len())..].iter().all(|c| c.movable && c.pins == 0);
                    let got = design.truncate_cells(len);
                    prop_assert_eq!(got.is_ok(), expect, "step {}: truncate to {}: {:?}", step, len, got);
                    if expect {
                        model.truncate(len);
                    }
                }
            }

            prop_assert_eq!(design.num_cells(), model.len());
            for (i, c) in model.iter().enumerate() {
                let cell = design.cell(CellId::from_usize(i));
                prop_assert_eq!((cell.width(), cell.height()), (c.width, c.height), "cell {}", i);
            }
            let area: i64 = model.iter().filter(|c| c.movable).map(Cell::area).sum();
            prop_assert_eq!(design.density().to_bits(), (area as f64 / CAPACITY as f64).to_bits());

            // The index is never rebuilt, yet answers as a fresh rebuild does.
            let mut rebuilt = design.netlist().clone();
            rebuilt.rebuild_cell_index(design.num_cells());
            for (i, c) in model.iter().enumerate() {
                let id = CellId::from_usize(i);
                let pins = design.netlist().pins_of_cell(id);
                prop_assert_eq!(pins, rebuilt.pins_of_cell(id), "cell {}", i);
                if c.appended {
                    prop_assert!(pins.is_empty(), "appended cell {} has pins", i);
                } else {
                    prop_assert_eq!(pins, original[i].as_slice(), "original cell {}", i);
                }
            }
        }

        // Cell 1 is the first movable cell and carries a pin.
        let before = design.num_cells();
        let err = design.truncate_cells(1).unwrap_err();
        prop_assert!(err.to_string().contains("carries pins"), "{}", err);
        prop_assert_eq!(design.num_cells(), before);
    }
}
