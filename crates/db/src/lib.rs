//! Placement database for multi-row height standard cell legalization.
//!
//! This crate is the substrate the MLL algorithm (crate `mrl-legalize`)
//! operates on. It models, in site units (see `mrl-geom`):
//!
//! * the **cell library and instances** — movable standard cells of one or
//!   more row heights, fixed macros, and placement blockages ([`Cell`],
//!   [`CellKind`]),
//! * the **netlist** — nets connecting cell pins and fixed I/O pins, with
//!   half-perimeter wirelength ([`Netlist`], [`Net`], [`Pin`]),
//! * the **floorplan** — placement rows and the derived **segments**
//!   (Section 2.1.2 of the paper): maximal runs of placement sites not
//!   blocked by macros or blockages ([`Floorplan`], [`Segment`]),
//! * the **design** — everything above plus the global-placement input
//!   positions ([`Design`], [`DesignBuilder`]),
//! * the **placement state** — current cell positions plus the per-segment
//!   cell lists ordered by x that the paper's algorithms maintain
//!   ([`PlacementState`]).
//!
//! # Examples
//!
//! Build a tiny two-row design and place a cell:
//!
//! ```
//! use mrl_db::{DesignBuilder, PlacementState, CellKind};
//! use mrl_geom::SitePoint;
//!
//! let mut b = DesignBuilder::new(2, 10); // 2 rows of 10 sites
//! let a = b.add_cell("a", 3, 1);
//! let t = b.add_cell("t", 2, 2); // a double-row cell
//! let design = b.finish()?;
//!
//! let mut state = PlacementState::new(&design);
//! state.place(&design, a, SitePoint::new(0, 0))?;
//! state.place(&design, t, SitePoint::new(4, 0))?;
//! assert!(state.is_free(&design, &mrl_geom::SiteRect::new(7, 0, 2, 2)));
//! assert!(!state.is_free(&design, &mrl_geom::SiteRect::new(3, 0, 2, 2)));
//! # Ok::<(), mrl_db::DbError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cell;
mod csr;
mod design;
mod error;
mod floorplan;
mod ids;
mod net;
mod placement;
mod region;

pub use cell::{Cell, CellKind};
pub use design::{Design, DesignBuilder};
pub use error::DbError;
pub use floorplan::{Floorplan, Row, Segment};
pub use ids::{CellId, NetId, PinId, RegionId, SegId};
pub use net::{Net, Netlist, Pin, PinLocation};
pub use placement::{index_cross_check_count, ListSlice, PlacementState, Savepoint};
pub use region::FenceRegion;
