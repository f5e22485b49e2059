//! Incremental ECO legalization: transactional edit batches over a live
//! legalized placement.
//!
//! The paper's algorithm legalizes a whole design at once; real flows then
//! iterate — gate sizing, buffer insertion, local replacement (the
//! *engineering change orders* of Section 1) perturb a handful of cells and
//! need the placement legal again without paying a full re-run. This crate
//! keeps a legalized [`mrl_db::PlacementState`] resident and applies
//! [`EditBatch`]es by unplacing only the affected cells and re-legalizing
//! them through the standard MLL → retry → escalation ladder, reusing the
//! CSR occupancy index and scratch arena across batches.
//!
//! Batches are transactional: the placement's first-touch journal plus a
//! design-level undo log give bit-exact rollback when a batch is rejected
//! (infeasible insert, failed re-legalization, blown induced-displacement
//! budget). The [`stream`] module defines the NDJSON wire format the
//! `mrl serve` CLI mode and the fuzz harness's eco regime both speak, and
//! [`serve`] is the one request loop `mrl serve` runs over stdin, a file
//! or a TCP connection.
//!
//! ```
//! use mrl_db::PlacementState;
//! use mrl_eco::{EcoConfig, EcoSession, Edit, EditBatch};
//! use mrl_legalize::{Legalizer, LegalizerConfig};
//! use mrl_synth::{generate_witness, WitnessConfig};
//!
//! let witness = generate_witness(&WitnessConfig::new(9)).unwrap();
//! let design = witness.design;
//! let cfg = LegalizerConfig::default();
//! let mut state = PlacementState::new(&design);
//! Legalizer::new(cfg.clone()).legalize(&design, &mut state).unwrap();
//! let cell = design.movable_cells().next().unwrap();
//! let (x, y) = design.input_position(cell);
//!
//! let mut session = EcoSession::new(design, state, cfg, EcoConfig::default());
//! let stats = session
//!     .apply_batch(&EditBatch {
//!         id: 1,
//!         edits: vec![Edit::Move { cell, x: x + 2.0, y }],
//!     })
//!     .unwrap();
//! assert!(stats.applied);
//! ```

#![warn(missing_docs)]

mod server;
mod session;
pub mod stream;
pub mod telemetry;

pub use server::{serve, ServeError, MAX_LINE_BYTES};
pub use session::{BatchStats, EcoConfig, EcoError, EcoSession, Edit, EditBatch};
pub use telemetry::ServeTelemetry;
