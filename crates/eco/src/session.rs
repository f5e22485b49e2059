//! The incremental legalization session: edit batches over a live
//! legalized placement.

use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mrl_db::{CellId, DbError, Design, PlacementState, Savepoint};
use mrl_geom::{PowerRail, SiteRect};
use mrl_legalize::{LegalizeCtx, Legalizer, LegalizerConfig, ScratchArena};
use mrl_metrics::{RailCheck, Violation};

use crate::telemetry::{RejectReason, ServeTelemetry};

/// Microseconds elapsed since `t`, saturated into the histogram domain.
pub(crate) fn elapsed_us(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// One atomic change to the design, in the paper's incremental-use terms
/// (Section 1: gate sizing, buffer insertion, local replacement).
#[derive(Clone, Debug, PartialEq)]
pub enum Edit {
    /// Re-target a movable cell to a new fractional-site position.
    Move {
        /// The cell to move.
        cell: CellId,
        /// New target x in fractional sites.
        x: f64,
        /// New target y in fractional rows.
        y: f64,
    },
    /// Change a movable cell's width (gate sizing), keeping it anchored
    /// near its current position.
    Resize {
        /// The cell to resize.
        cell: CellId,
        /// New width in sites.
        width: i32,
    },
    /// Add a new movable cell (buffer insertion). The cell is appended to
    /// the design's cell table; its id is `design.num_cells()` at the time
    /// the edit applies.
    Insert {
        /// Instance name of the new cell.
        name: String,
        /// Width in sites.
        width: i32,
        /// Height in rows.
        height: i32,
        /// Bottom-edge rail polarity.
        rail: PowerRail,
        /// Target x in fractional sites.
        x: f64,
        /// Target y in fractional rows.
        y: f64,
    },
    /// Remove a cell from the placement. The id stays allocated (a
    /// tombstone) so later edits keep stable ids; deleted cells reject
    /// further edits.
    Delete {
        /// The cell to delete.
        cell: CellId,
    },
}

impl Edit {
    /// The cell an edit names, if it targets an existing cell.
    pub fn cell(&self) -> Option<CellId> {
        match self {
            Edit::Move { cell, .. } | Edit::Resize { cell, .. } | Edit::Delete { cell } => {
                Some(*cell)
            }
            Edit::Insert { .. } => None,
        }
    }
}

/// A transactional group of edits: either every edit in the batch commits
/// and the placement is legal afterwards, or the whole batch rolls back
/// bit-exactly.
#[derive(Clone, Debug, PartialEq)]
pub struct EditBatch {
    /// Request id, echoed in the response.
    pub id: u64,
    /// The edits, applied in order.
    pub edits: Vec<Edit>,
}

/// Session-level knobs of the incremental engine.
#[derive(Clone, Debug, Default)]
pub struct EcoConfig {
    /// Budget on the total Manhattan displacement (sites + rows) a batch
    /// may inflict on cells it does not name. Over-budget batches roll
    /// back and report rejection. `None` = unlimited; `Some(0)` rejects
    /// any batch that moves a neighbor at all (the rollback property
    /// test's forcing knob).
    pub max_induced_disp: Option<i64>,
}

impl EcoConfig {
    /// Returns `self` with the induced-displacement budget replaced.
    pub fn with_max_induced_disp(mut self, budget: Option<i64>) -> Self {
        self.max_induced_disp = budget;
        self
    }
}

/// A malformed request or an internal database failure. Distinct from a
/// *rejected* batch: rejection (infeasible insert, blown displacement
/// budget) is a clean outcome — the batch rolls back and
/// [`BatchStats::applied`] is `false` — while an `EcoError` means the
/// request itself could not be processed.
#[derive(Debug)]
pub enum EcoError {
    /// The batch references a cell that does not exist, is deleted, is
    /// fixed, or carries nonsense parameters.
    InvalidEdit {
        /// The offending request id.
        request: u64,
        /// What was wrong.
        message: String,
    },
    /// An internal invariant failed (should not happen).
    Db(DbError),
}

impl fmt::Display for EcoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EcoError::InvalidEdit { request, message } => {
                write!(f, "request {request}: {message}")
            }
            EcoError::Db(e) => write!(f, "database error: {e}"),
        }
    }
}

impl std::error::Error for EcoError {}

impl From<DbError> for EcoError {
    fn from(e: DbError) -> Self {
        EcoError::Db(e)
    }
}

/// Per-batch outcome and cost accounting.
#[derive(Clone, Debug, PartialEq)]
pub struct BatchStats {
    /// Echo of [`EditBatch::id`].
    pub request: u64,
    /// `true` = committed; `false` = rolled back (see `reject`).
    pub applied: bool,
    /// Number of edits in the batch.
    pub edits: usize,
    /// Cells sent through the re-legalization ladder.
    pub relegalized: usize,
    /// Cells whose position mutated at any point while the batch ran (the
    /// first-touch journal length) — the true disturbance footprint.
    pub touched: usize,
    /// Cells whose final position differs from their pre-batch position
    /// (0 after a rollback).
    pub moved: usize,
    /// Total Manhattan displacement (sites + rows) inflicted on cells the
    /// batch did not name.
    pub induced_disp: i64,
    /// Disturbed window: union of old/new extents of the edited cells
    /// grown by the legalizer's MLL window half-extents `(Rx, Ry)`, clipped
    /// to the floorplan, as `(x, y, w, h)`.
    pub window: (i32, i32, i32, i32),
    /// MLL invocations while re-legalizing.
    pub mll_calls: usize,
    /// Retry rounds the ladder needed.
    pub retry_rounds: u32,
    /// Escalation-tier engagements.
    pub escalations: u64,
    /// Why the batch rolled back, when it did.
    pub reject: Option<String>,
    /// Wall time of the whole apply, including a rollback if one ran.
    pub wall: Duration,
}

/// A long-running incremental legalization engine: holds a legalized
/// [`PlacementState`] (plus its design) in memory and applies
/// [`EditBatch`]es by unplacing only the affected cells and re-legalizing
/// them through the standard MLL → retry → escalation ladder
/// ([`Legalizer::legalize_subset`]), reusing the CSR occupancy index
/// and one [`ScratchArena`] across batches with no full rebuild.
///
/// Each batch is transactional: it runs inside the outermost savepoint
/// of the placement's first-touch journal ([`PlacementState::savepoint`]),
/// which captures every cell the legalizer decides to move — escalation
/// chains nest their own savepoints inside it — so a rejected batch —
/// infeasible edit, failed re-legalization, blown displacement budget —
/// rolls back bit-exactly, including design-level mutations (input
/// positions, widths, appended cells).
pub struct EcoSession {
    design: Design,
    state: PlacementState,
    legalizer: Legalizer,
    cfg: EcoConfig,
    arena: ScratchArena,
    deleted: Vec<bool>,
    deleted_count: usize,
    batches_applied: u64,
    batches_rejected: u64,
    telemetry: Arc<ServeTelemetry>,
}

impl EcoSession {
    /// Opens a session over an already-legalized placement. The state must
    /// be sized to the design; legality of the starting placement is the
    /// caller's contract (batches keep it, they cannot create it).
    pub fn new(
        design: Design,
        state: PlacementState,
        legalizer: LegalizerConfig,
        cfg: EcoConfig,
    ) -> Self {
        let deleted = vec![false; design.num_cells()];
        let telemetry = Arc::new(ServeTelemetry::new());
        let session = Self {
            design,
            state,
            legalizer: Legalizer::new(legalizer),
            cfg,
            arena: ScratchArena::new(),
            deleted,
            deleted_count: 0,
            batches_applied: 0,
            batches_rejected: 0,
            telemetry,
        };
        session.refresh_gauges(0);
        session
    }

    /// The session's always-on metric registry. Clone the `Arc` to hand it
    /// to an exporter thread; recording continues either way.
    pub fn telemetry(&self) -> &Arc<ServeTelemetry> {
        &self.telemetry
    }

    /// The live design, including any committed inserts/resizes.
    pub fn design(&self) -> &Design {
        &self.design
    }

    /// The live placement.
    pub fn state(&self) -> &PlacementState {
        &self.state
    }

    /// The session configuration.
    pub fn config(&self) -> &EcoConfig {
        &self.cfg
    }

    /// True if the cell was deleted by a committed batch.
    pub fn is_deleted(&self, cell: CellId) -> bool {
        self.deleted.get(cell.index()).copied().unwrap_or(false)
    }

    /// Number of tombstoned cells (O(1): maintained at commit).
    pub fn num_deleted(&self) -> usize {
        self.deleted_count
    }

    /// Independent legality of the live placement
    /// ([`mrl_metrics::check_legal`], rails enforced), tolerating
    /// tombstoned cells being unplaced.
    ///
    /// # Errors
    ///
    /// Every violation other than an unplaced tombstone.
    pub fn check_legal(&self) -> Result<(), Vec<Violation>> {
        let Err(report) = mrl_metrics::check_legal(&self.design, &self.state, RailCheck::Enforce)
        else {
            return Ok(());
        };
        let mut found = report.violations;
        found.retain(|v| !matches!(v, Violation::Unplaced(c) if self.is_deleted(*c)));
        found.is_empty().then_some(()).ok_or(found)
    }

    /// Batches committed so far.
    pub fn batches_applied(&self) -> u64 {
        self.batches_applied
    }

    /// Batches rolled back so far.
    pub fn batches_rejected(&self) -> u64 {
        self.batches_rejected
    }

    /// Applies one batch under the session's displacement budget.
    ///
    /// # Errors
    ///
    /// [`EcoError::InvalidEdit`] for malformed requests (state unchanged);
    /// [`EcoError::Db`] only on internal invariant failure.
    pub fn apply_batch(&mut self, batch: &EditBatch) -> Result<BatchStats, EcoError> {
        self.apply_batch_with_budget(batch, self.cfg.max_induced_disp)
    }

    /// [`apply_batch`](EcoSession::apply_batch) with the induced-
    /// displacement budget overridden for this batch alone — the fuzz
    /// harness's forced-rejection probe uses `Some(0)`.
    ///
    /// # Errors
    ///
    /// Same as [`apply_batch`](EcoSession::apply_batch).
    pub fn apply_batch_with_budget(
        &mut self,
        batch: &EditBatch,
        budget: Option<i64>,
    ) -> Result<BatchStats, EcoError> {
        let mut ctx = LegalizeCtx::new();
        ctx.arena = std::mem::take(&mut self.arena);
        let result = self.apply_inner(batch, budget, &mut ctx);
        self.arena = ctx.arena;
        if let Err(e) = &result {
            self.telemetry.batches_error.inc();
            match e {
                EcoError::InvalidEdit { .. } => self.telemetry.errors_invalid_edit.inc(),
                EcoError::Db(_) => {
                    // An internal invariant failed; the session can no
                    // longer vouch for its state, so health flips too.
                    self.telemetry.errors_internal.inc();
                    self.telemetry.poison();
                }
            }
        }
        result
    }

    /// Pre-flight validation: walks the batch against a simulated cell
    /// table so no mutation happens for malformed requests.
    fn validate(&self, batch: &EditBatch) -> Result<(), EcoError> {
        let fail = |message: String| EcoError::InvalidEdit {
            request: batch.id,
            message,
        };
        let mut sim_cells = self.design.num_cells();
        let mut sim_deleted: HashSet<CellId> = HashSet::new();
        for edit in &batch.edits {
            if let Some(cell) = edit.cell() {
                if cell.index() >= sim_cells {
                    return Err(fail(format!("cell {cell} does not exist")));
                }
                if self.is_deleted(cell) || sim_deleted.contains(&cell) {
                    return Err(fail(format!("cell {cell} is deleted")));
                }
                if cell.index() < self.design.num_cells() && !self.design.cell(cell).is_movable() {
                    return Err(fail(format!("cell {cell} is fixed")));
                }
            }
            match edit {
                Edit::Resize { cell, width } if *width <= 0 => {
                    return Err(fail(format!("cell {cell}: width {width} must be positive")));
                }
                Edit::Insert {
                    name,
                    width,
                    height,
                    ..
                } => {
                    if *width <= 0 || *height <= 0 {
                        return Err(fail(format!(
                            "insert {name}: dimensions {width}x{height} must be positive"
                        )));
                    }
                    sim_cells += 1;
                }
                Edit::Delete { cell } => {
                    sim_deleted.insert(*cell);
                }
                _ => {}
            }
        }
        Ok(())
    }

    fn apply_inner(
        &mut self,
        batch: &EditBatch,
        budget: Option<i64>,
        ctx: &mut LegalizeCtx,
    ) -> Result<BatchStats, EcoError> {
        let wall = Instant::now();
        for edit in &batch.edits {
            match edit {
                Edit::Move { .. } => self.telemetry.edits_move.inc(),
                Edit::Resize { .. } => self.telemetry.edits_resize.inc(),
                Edit::Insert { .. } => self.telemetry.edits_insert.inc(),
                Edit::Delete { .. } => self.telemetry.edits_delete.inc(),
            }
        }
        let validated = self.validate(batch);
        self.telemetry.phase_validate.observe(elapsed_us(wall));
        validated?;

        // Phase 1: open the batch savepoint and apply the structural edits,
        // unplacing only the cells the batch names. Design-level undo is
        // tracked here; placement-level undo lives in the journal.
        let sp = self.state.savepoint();
        let base_cells = self.design.num_cells();
        let mut prev_inputs: Vec<(CellId, (f64, f64))> = Vec::new();
        let mut prev_widths: Vec<(CellId, i32)> = Vec::new();
        let mut pending_deletes: Vec<CellId> = Vec::new();
        let mut relegalize: Vec<CellId> = Vec::new();
        let mut edited: Vec<CellId> = Vec::new();
        let mut window = WindowAcc::new();
        let mut reject: Option<(RejectReason, String)> = None;

        for edit in &batch.edits {
            match edit {
                Edit::Move { cell, x, y } => {
                    let cell = *cell;
                    if self.state.is_placed(cell) {
                        let rect = self.state.rect_of(&self.design, cell).expect("placed");
                        window.add(&rect);
                        self.state.remove(&self.design, cell)?;
                    }
                    let c = self.design.cell(cell);
                    window.add_target(*x, *y, c.width(), c.height());
                    prev_inputs.push((cell, self.design.input_position(cell)));
                    self.design.set_input_position(cell, *x, *y);
                    relegalize.push(cell);
                    edited.push(cell);
                }
                Edit::Resize { cell, width } => {
                    let cell = *cell;
                    let anchor = if self.state.is_placed(cell) {
                        let rect = self.state.rect_of(&self.design, cell).expect("placed");
                        window.add(&rect);
                        let p = self.state.remove(&self.design, cell)?;
                        (f64::from(p.x), f64::from(p.y))
                    } else {
                        self.design.input_position(cell)
                    };
                    prev_inputs.push((cell, self.design.input_position(cell)));
                    self.design.set_input_position(cell, anchor.0, anchor.1);
                    let old_width = self.design.cell(cell).width();
                    match self.design.set_cell_width(cell, *width) {
                        Ok(()) => {
                            prev_widths.push((cell, old_width));
                            let h = self.design.cell(cell).height();
                            window.add_target(anchor.0, anchor.1, *width, h);
                            relegalize.push(cell);
                            edited.push(cell);
                        }
                        Err(e) => {
                            reject = Some((RejectReason::Resize, format!("resize rejected: {e}")));
                            break;
                        }
                    }
                }
                Edit::Insert {
                    name,
                    width,
                    height,
                    rail,
                    x,
                    y,
                } => {
                    match self
                        .design
                        .append_movable(name.clone(), *width, *height, *rail, (*x, *y))
                    {
                        Ok(id) => {
                            self.state.grow(&self.design);
                            window.add_target(*x, *y, *width, *height);
                            relegalize.push(id);
                            edited.push(id);
                        }
                        Err(e) => {
                            reject = Some((RejectReason::Insert, format!("insert rejected: {e}")));
                            break;
                        }
                    }
                }
                Edit::Delete { cell } => {
                    let cell = *cell;
                    if self.state.is_placed(cell) {
                        let rect = self.state.rect_of(&self.design, cell).expect("placed");
                        window.add(&rect);
                        self.state.remove(&self.design, cell)?;
                    }
                    pending_deletes.push(cell);
                    edited.push(cell);
                }
            }
        }

        // Phase 2: re-legalize the disturbed cells (deleted ones excluded)
        // through the standard ladder, reusing the session arena.
        if reject.is_none() {
            let targets: Vec<CellId> = relegalize
                .iter()
                .copied()
                .filter(|c| !pending_deletes.contains(c))
                .collect();
            let legalize_t = Instant::now();
            let result =
                self.legalizer
                    .legalize_subset(&self.design, &mut self.state, &targets, ctx);
            self.telemetry
                .phase_legalize
                .observe(elapsed_us(legalize_t));
            if let Err(e) = result {
                reject = Some((RejectReason::Legalize, format!("legalization failed: {e}")));
            }
        }
        let lstats = ctx.stats;

        // Phase 3: displacement accounting and the budget gate.
        let mut induced = 0i64;
        for &(cell, orig) in self.state.journal(&sp) {
            if edited.contains(&cell) {
                continue;
            }
            if let (Some(was), Some(now)) = (orig, self.state.position(cell)) {
                induced += i64::from((now.x - was.x).abs()) + i64::from((now.y - was.y).abs());
            }
        }
        if reject.is_none() {
            if let Some(max) = budget {
                if induced > max {
                    reject = Some((
                        RejectReason::Budget,
                        format!("induced displacement {induced} exceeds budget {max}"),
                    ));
                }
            }
        }

        // Phase 4: commit, or roll back bit-exactly.
        let relegalized = relegalize.len();
        let cfg = self.legalizer.config();
        let window = window.with_halo_clipped(&self.design, (cfg.rx, cfg.ry));
        // Journal depth before commit/rollback closes the savepoint: the
        // batch's true disturbance footprint, whichever way it resolves.
        let journal_depth = self.state.journal(&sp).len();
        let stats = if let Some((why, reason)) = reject {
            self.rollback(sp, base_cells, &prev_inputs, &prev_widths)?;
            self.batches_rejected += 1;
            self.telemetry.batches_rejected.inc();
            self.telemetry.record_reject(why);
            BatchStats {
                request: batch.id,
                applied: false,
                edits: batch.edits.len(),
                relegalized,
                touched: 0,
                moved: 0,
                induced_disp: 0,
                window,
                mll_calls: lstats.mll_calls,
                retry_rounds: lstats.retry_rounds,
                escalations: lstats.escalation.engaged,
                reject: Some(reason),
                wall: wall.elapsed(),
            }
        } else {
            let log = self.state.journal(&sp);
            let moved = log
                .iter()
                .filter(|&&(cell, orig)| self.state.position(cell) != orig)
                .count();
            self.state.release(sp);
            self.deleted.resize(self.design.num_cells(), false);
            for &cell in &pending_deletes {
                self.deleted[cell.index()] = true;
            }
            // Validation guarantees each pending delete is unique and not
            // already tombstoned, so the O(1) count stays exact.
            self.deleted_count += pending_deletes.len();
            self.batches_applied += 1;
            self.telemetry.batches_applied.inc();
            self.telemetry
                .induced_disp
                .observe(u64::try_from(induced).unwrap_or(0));
            BatchStats {
                request: batch.id,
                applied: true,
                edits: batch.edits.len(),
                relegalized,
                touched: journal_depth,
                moved,
                induced_disp: induced,
                window,
                mll_calls: lstats.mll_calls,
                retry_rounds: lstats.retry_rounds,
                escalations: lstats.escalation.engaged,
                reject: None,
                wall: wall.elapsed(),
            }
        };
        self.telemetry.escalations.observe(stats.escalations);
        self.telemetry
            .batch_latency
            .observe(u64::try_from(stats.wall.as_micros()).unwrap_or(u64::MAX));
        self.refresh_gauges(journal_depth);
        Ok(stats)
    }

    /// Publishes the session gauges after a batch resolves (and once at
    /// open). Cheap — a handful of relaxed stores — so it runs even when
    /// nothing is scraping.
    fn refresh_gauges(&self, journal_depth: usize) {
        let t = &self.telemetry;
        t.live_cells
            .set((self.design.num_cells() - self.deleted_count) as u64);
        t.tombstoned_cells.set(self.deleted_count as u64);
        t.index_bytes.set(self.state.index_bytes() as u64);
        t.index_slack_bytes
            .set(self.state.index_slack_bytes() as u64);
        t.journal_depth.set(journal_depth as u64);
        t.batches_since_start
            .set(self.batches_applied + self.batches_rejected);
    }

    /// Bit-exact rollback of a rejected batch: placement journal first
    /// (with resized cells lifted so footprints restore at their original
    /// widths), then the design-level mutations.
    fn rollback(
        &mut self,
        sp: Savepoint,
        base_cells: usize,
        prev_inputs: &[(CellId, (f64, f64))],
        prev_widths: &[(CellId, i32)],
    ) -> Result<(), EcoError> {
        // Resized cells currently placed hold index footprints at the new
        // width; lift them before shrinking the width back so the index
        // stays consistent, and before the journal replays original spans.
        // Newest first, so a cell resized twice in one batch lands back on
        // its true pre-batch width.
        for &(cell, old_width) in prev_widths.iter().rev() {
            if self.state.is_placed(cell) {
                self.state.remove(&self.design, cell)?;
            }
            self.design.set_cell_width(cell, old_width)?;
        }
        self.state.rollback_to(&self.design, sp)?;
        // Appended cells are unplaced after the journal rollback; retract
        // them from both tables.
        self.design.truncate_cells(base_cells)?;
        self.state.truncate(&self.design)?;
        // Input positions last, newest first, so a cell edited twice in
        // one batch lands back on its true pre-batch input.
        for &(cell, (x, y)) in prev_inputs.iter().rev() {
            self.design.set_input_position(cell, x, y);
        }
        Ok(())
    }
}

/// Accumulates the disturbed window as min/max site bounds.
struct WindowAcc {
    x0: i32,
    y0: i32,
    x1: i32,
    y1: i32,
    any: bool,
}

impl WindowAcc {
    fn new() -> Self {
        Self {
            x0: i32::MAX,
            y0: i32::MAX,
            x1: i32::MIN,
            y1: i32::MIN,
            any: false,
        }
    }

    fn add(&mut self, rect: &SiteRect) {
        self.x0 = self.x0.min(rect.x);
        self.y0 = self.y0.min(rect.y);
        self.x1 = self.x1.max(rect.right());
        self.y1 = self.y1.max(rect.top());
        self.any = true;
    }

    fn add_target(&mut self, x: f64, y: f64, w: i32, h: i32) {
        let rect = SiteRect::new(x.floor() as i32, y.floor() as i32, w.max(1), h.max(1));
        self.add(&rect);
    }

    /// The accumulated window grown by the halo and clipped to the
    /// floorplan, as `(x, y, w, h)`; all zero when the batch was empty.
    fn with_halo_clipped(&self, design: &Design, halo: (i32, i32)) -> (i32, i32, i32, i32) {
        if !self.any {
            return (0, 0, 0, 0);
        }
        let b = design.floorplan().bounds();
        let x0 = (self.x0 - halo.0).max(b.x);
        let y0 = (self.y0 - halo.1).max(b.y);
        let x1 = (self.x1 + halo.0).min(b.right());
        let y1 = (self.y1 + halo.1).min(b.top());
        (x0, y0, (x1 - x0).max(0), (y1 - y0).max(0))
    }
}
