//! The legalization driver (Algorithm 1 of the paper).
//!
//! Every movable cell is visited once and placed at the site-aligned,
//! rail-compatible position nearest its global-placement input; cells whose
//! direct placement overlaps trigger [`mll`]. Cells that still fail are
//! retried with uniformly random offsets whose radius grows with the
//! iteration number (`Rand_x(k) ∈ [−Rx·(k−1), Rx·(k−1)]`, similarly for y)
//! until everything is placed.
//!
//! Every operation takes a [`LegalizeCtx`]: the scratch arena, the run's
//! [`LegalizeStats`] and the trace sink. Only [`Legalizer::legalize`] and
//! [`Legalizer::legalize_parallel`] build one themselves.

use crate::config::{CellOrder, LegalizerConfig};
use crate::escalate::AFTER_ROUNDS;
use crate::mll::mll;
use crate::scratch::ScratchArena;
use mrl_db::{CellId, DbError, Design, PlacementState};
use mrl_geom::SitePoint;
use mrl_trace::{
    AttemptOutcome, AttemptRecord, EscalationCounters, FailCounts, FailReason, MetricsSummary,
    NoopSink, Phase, PhaseTimes, Sink, TraceBuf,
};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::error::Error;
use std::fmt;
use std::time::Duration;

/// Counters describing one legalization run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LegalizeStats {
    /// Cells placed (movable cells that were unplaced at entry).
    pub placed: usize,
    /// Cells placed directly at their snapped position without MLL.
    pub direct: usize,
    /// Cells placed by MLL.
    pub via_mll: usize,
    /// Number of retry rounds (`k` at loop exit; 0 when the first pass
    /// placed everything).
    pub retry_rounds: u32,
    /// Total MLL invocations, including failed ones.
    pub mll_calls: usize,
    /// Per-phase wall-clock breakdown (extract / enumerate / evaluate /
    /// realize / retry / escalate). In the parallel driver this is the
    /// *sum* over workers, so phase time can exceed [`LegalizeStats::wall`].
    pub phases: PhaseTimes,
    /// End-to-end wall time of the driver.
    pub wall: Duration,
    /// Worker threads used (1 for the sequential driver).
    pub threads: usize,
    /// Vertical stripes formed by the parallel driver (0 when sequential).
    pub stripes: usize,
    /// Stripes whose results were discarded because a move escaped the
    /// stripe halo (their cells were re-legalized sequentially).
    pub conflicts: usize,
    /// Cells that fell through the parallel phase (first-pass failures plus
    /// conflicting stripes) and were handled by the sequential retry pass.
    pub residue: usize,
    /// Failure-reason tallies. `no_insertion_point` and
    /// `region_extraction_empty` count failed *attempts* (a cell retried 3
    /// times contributes 3); `retry_budget_exhausted` counts *cells* still
    /// unplaced when the retry budget ran out.
    pub fail_counts: FailCounts,
    /// Escalation-tier engagement and success counters (see
    /// [`crate::EscalationConfig`]). All zero when escalation never
    /// engaged.
    pub escalation: EscalationCounters,
}

impl LegalizeStats {
    /// The metrics digest of this run (`--metrics-json`, the bench
    /// report): every counter here plus the histograms folded from the
    /// run's `trace`.
    pub fn metrics_summary(&self, design: &str, trace: &TraceBuf) -> MetricsSummary {
        let mut m = MetricsSummary {
            design: design.to_string(),
            threads: self.threads,
            wall: self.wall,
            phases: self.phases,
            placed: self.placed as u64,
            direct: self.direct as u64,
            via_mll: self.via_mll as u64,
            mll_calls: self.mll_calls as u64,
            retry_rounds: u64::from(self.retry_rounds),
            stripes: self.stripes as u64,
            conflicts: self.conflicts as u64,
            residue: self.residue as u64,
            fail_counts: self.fail_counts,
            escalation: self.escalation,
            ..MetricsSummary::default()
        };
        m.ingest(trace);
        m
    }
}

/// Places `cell` at `at`, checking rail parity only when `cfg` aligns
/// rails — the one placement rule every driver and tier shares.
pub(crate) fn place_cell(
    cfg: &LegalizerConfig,
    design: &Design,
    state: &mut PlacementState,
    cell: CellId,
    at: SitePoint,
) -> Result<(), DbError> {
    if cfg.rail_mode.is_aligned() {
        state.place(design, cell, at)
    } else {
        state.place_ignoring_rails(design, cell, at)
    }
}

/// The working context of one legalizer run: the thread's scratch arena,
/// the run's statistics (with their phase ledger) and the trace sink.
///
/// The drivers reset [`stats`](LegalizeCtx::stats) when they start, so
/// after a run — failed or not — they describe that run; the single-cell
/// operations ([`crate::mll()`], [`Legalizer::try_place`],
/// [`Legalizer::escalate_cell`]) add to them. Reuse one context across
/// calls to keep the arena warm.
#[derive(Debug, Default)]
pub struct LegalizeCtx<S = NoopSink> {
    /// Reusable kernel buffers (DESIGN.md §6).
    pub arena: ScratchArena,
    /// Counters and the phase ledger.
    pub stats: LegalizeStats,
    /// Structured-event consumer; [`NoopSink`] compiles every event away.
    pub sink: S,
}

impl LegalizeCtx {
    /// A context that records no trace events.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<S> LegalizeCtx<S> {
    /// A context recording trace events into `sink`.
    pub fn with_sink(sink: S) -> Self {
        LegalizeCtx {
            arena: ScratchArena::new(),
            stats: LegalizeStats::default(),
            sink,
        }
    }
}

/// Error returned when legalization cannot complete.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum LegalizeError {
    /// A cell exhausted the retry budget.
    Unplaceable {
        /// The offending cell.
        cell: CellId,
        /// Retry rounds performed.
        rounds: u32,
        /// Why the cell could not be placed. The core drivers report the
        /// cell's last per-attempt reason (no-insertion-point or
        /// region-extraction-empty); drivers that do not track per-attempt
        /// reasons use [`FailReason::RetryBudgetExhausted`].
        reason: FailReason,
    },
    /// A database inconsistency surfaced mid-run (indicates a bug).
    Db(DbError),
}

impl LegalizeError {
    /// The cell the failure is attributable to, when there is one.
    /// Failure reports (e.g. the fuzz harness) use this to name the
    /// offending cell without matching on the variant.
    pub fn cell(&self) -> Option<CellId> {
        match self {
            LegalizeError::Unplaceable { cell, .. } => Some(*cell),
            LegalizeError::Db(_) => None,
        }
    }
}

impl fmt::Display for LegalizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LegalizeError::Unplaceable {
                cell,
                rounds,
                reason,
            } => {
                write!(
                    f,
                    "cell {cell} could not be placed after {rounds} retry rounds (last failure: {reason})"
                )
            }
            LegalizeError::Db(e) => write!(f, "database error during legalization: {e}"),
        }
    }
}

impl Error for LegalizeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            LegalizeError::Db(e) => Some(e),
            LegalizeError::Unplaceable { .. } => None,
        }
    }
}

impl From<DbError> for LegalizeError {
    fn from(e: DbError) -> Self {
        LegalizeError::Db(e)
    }
}

/// The multi-row legalizer (Algorithm 1 wrapping MLL).
///
/// See the [crate-level example](crate) for typical use.
#[derive(Clone, Debug)]
pub struct Legalizer {
    cfg: LegalizerConfig,
}

impl Legalizer {
    /// Creates a legalizer with the given configuration.
    pub fn new(cfg: LegalizerConfig) -> Self {
        Self { cfg }
    }

    /// The configuration in use.
    pub fn config(&self) -> &LegalizerConfig {
        &self.cfg
    }

    /// Snaps a fractional-site position to the nearest site-aligned,
    /// rail-compatible, in-bounds position for `cell`.
    pub fn snap(&self, design: &Design, cell: CellId, fx: f64, fy: f64) -> SitePoint {
        let c = design.cell(cell);
        let fp = design.floorplan();
        let bounds = fp.bounds();
        // Fence members aim at their region's bounding box so the local
        // window lands where legal positions exist.
        let (fx, fy) = match design.region_of(cell) {
            Some(r) => {
                let rb = design.region(r).bounds();
                (
                    fx.clamp(
                        f64::from(rb.x),
                        f64::from((rb.right() - c.width()).max(rb.x)),
                    ),
                    fy.clamp(
                        f64::from(rb.y),
                        f64::from((rb.top() - c.height()).max(rb.y)),
                    ),
                )
            }
            None => (fx, fy),
        };
        let x = (fx.round() as i32).clamp(bounds.x, (bounds.right() - c.width()).max(bounds.x));
        let max_row = (fp.num_rows() - c.height()).max(0);
        let row0 = (fy.round() as i32).clamp(0, max_row);
        let row = if self.cfg.rail_mode.is_aligned() {
            // Walk outward from row0 to the nearest compatible row.
            (0..=max_row)
                .map(|d| [row0 - d, row0 + d])
                .flat_map(|c| c.into_iter())
                .find(|&r| {
                    (0..=max_row).contains(&r) && fp.rail_compatible(c.rail(), c.height(), r)
                })
                .unwrap_or(row0)
        } else {
            row0
        };
        SitePoint::new(x, row)
    }

    /// One placement attempt for an unplaced cell at the fractional-site
    /// position `at`: direct placement if the snapped footprint is free,
    /// otherwise MLL. Returns `Ok(None)` when the cell is now placed and
    /// `Ok(Some(reason))` when it is not; the reason is also tallied into
    /// `ctx.stats.fail_counts`. `round` is diagnostic only (0 = first pass,
    /// `k` = retry round `k`).
    ///
    /// # Errors
    ///
    /// Propagates database errors (e.g. the cell is already placed).
    pub fn try_place<S: Sink>(
        &self,
        design: &Design,
        state: &mut PlacementState,
        cell: CellId,
        at: (f64, f64),
        ctx: &mut LegalizeCtx<S>,
        round: u32,
    ) -> Result<Option<FailReason>, LegalizeError> {
        let pos = self.snap(design, cell, at.0, at.1);
        match place_cell(&self.cfg, design, state, cell, pos) {
            Ok(()) => {
                ctx.stats.direct += 1;
                ctx.stats.placed += 1;
                if S::ENABLED {
                    let c = design.cell(cell);
                    ctx.sink.attempt(AttemptRecord {
                        cell: cell.index() as u32,
                        height: c.height() as u8,
                        retry_round: round,
                        window: [
                            pos.x - self.cfg.rx,
                            pos.y - self.cfg.ry,
                            2 * self.cfg.rx + c.width(),
                            2 * self.cfg.ry + c.height(),
                        ],
                        region_cells: 0,
                        combos_generated: 0,
                        combos_pruned: 0,
                        combos_evaluated: 0,
                        outcome: AttemptOutcome::Direct { x: pos.x, y: pos.y },
                    });
                }
                Ok(None)
            }
            Err(DbError::AlreadyPlaced(c)) => Err(DbError::AlreadyPlaced(c).into()),
            Err(_) => {
                ctx.stats.mll_calls += 1;
                match mll(design, state, &self.cfg, cell, pos, ctx, round)? {
                    Ok(_) => {
                        ctx.stats.via_mll += 1;
                        ctx.stats.placed += 1;
                        Ok(None)
                    }
                    Err(reason) => {
                        ctx.stats.fail_counts.record(reason);
                        Ok(Some(reason))
                    }
                }
            }
        }
    }

    /// Legalizes every unplaced movable cell of the design (Algorithm 1).
    /// Already placed cells are kept and respected.
    ///
    /// # Errors
    ///
    /// [`LegalizeError::Unplaceable`] if a cell exhausts the retry budget
    /// (`max_retry_iters`); [`LegalizeError::Db`] on internal
    /// inconsistencies.
    pub fn legalize(
        &self,
        design: &Design,
        state: &mut PlacementState,
    ) -> Result<LegalizeStats, LegalizeError> {
        let mut ctx = LegalizeCtx::new();
        self.legalize_with(design, state, &mut ctx)
            .map(|()| ctx.stats)
    }

    /// [`legalize`](Legalizer::legalize) in a caller-owned context. The
    /// run's statistics land in `ctx.stats` whether or not it succeeds, so
    /// diagnostics — failure-reason tallies, phase times, attempt records
    /// already emitted into the sink — survive a failed run.
    ///
    /// # Errors
    ///
    /// Same as [`legalize`](Legalizer::legalize).
    pub fn legalize_with<S: Sink>(
        &self,
        design: &Design,
        state: &mut PlacementState,
        ctx: &mut LegalizeCtx<S>,
    ) -> Result<(), LegalizeError> {
        self.run_cells(design, state, None, ctx)
    }

    /// Re-legalizes a caller-chosen set of currently unplaced cells at
    /// their design input positions, leaving every other cell's membership
    /// in the placement untouched — the windowed re-entry point the
    /// incremental ECO engine (`mrl-eco`) drives after unplacing only the
    /// cells an edit batch disturbs. The subset runs the same ladder as a
    /// full [`legalize`](Legalizer::legalize): a first pass at the input
    /// positions, then the random-offset retry loop with escalation.
    /// Already-placed cells in `cells` are skipped. Statistics land in
    /// `ctx.stats` as for [`legalize_with`](Legalizer::legalize_with).
    ///
    /// # Errors
    ///
    /// Same as [`legalize`](Legalizer::legalize).
    pub fn legalize_subset<S: Sink>(
        &self,
        design: &Design,
        state: &mut PlacementState,
        cells: &[CellId],
        ctx: &mut LegalizeCtx<S>,
    ) -> Result<(), LegalizeError> {
        self.run_cells(design, state, Some(cells), ctx)
    }

    /// The sequential driver body: a first pass at the input positions
    /// (Algorithm 1 lines 2–7) over `subset`, or over every unplaced cell
    /// in the configured order, then the retry loop.
    fn run_cells<S: Sink>(
        &self,
        design: &Design,
        state: &mut PlacementState,
        subset: Option<&[CellId]>,
        ctx: &mut LegalizeCtx<S>,
    ) -> Result<(), LegalizeError> {
        let wall = std::time::Instant::now();
        ctx.stats = LegalizeStats {
            threads: 1,
            ..LegalizeStats::default()
        };
        let mut rng = SmallRng::seed_from_u64(self.cfg.seed);
        let ordered;
        let cells = match subset {
            Some(cells) => cells,
            None => {
                ordered = self.ordered_unplaced(design, state, &mut rng);
                &ordered
            }
        };
        let mut remaining = Vec::new();
        let mut result = Ok(());
        for &cell in cells {
            if state.is_placed(cell) {
                continue;
            }
            match self.try_place(design, state, cell, design.input_position(cell), ctx, 0) {
                Ok(None) => {}
                Ok(Some(reason)) => remaining.push((cell, reason)),
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
        if result.is_ok() {
            result = self.retry_loop(design, state, remaining, &mut rng, ctx);
        }
        ctx.stats.wall = wall.elapsed();
        result
    }

    /// The movable, still-unplaced cells in the configured visiting order.
    /// `rng` is consumed only for [`CellOrder::Shuffled`].
    pub(crate) fn ordered_unplaced(
        &self,
        design: &Design,
        state: &PlacementState,
        rng: &mut SmallRng,
    ) -> Vec<CellId> {
        let mut unplaced: Vec<CellId> = design
            .movable_cells()
            .filter(|&c| !state.is_placed(c))
            .collect();
        match self.cfg.order {
            CellOrder::Input => {}
            CellOrder::ByX => unplaced.sort_by(|&a, &b| {
                design
                    .input_position(a)
                    .0
                    .total_cmp(&design.input_position(b).0)
            }),
            CellOrder::ByAreaDesc => {
                unplaced.sort_by_key(|&c| std::cmp::Reverse(design.cell(c).area()))
            }
            CellOrder::Shuffled => unplaced.shuffle(rng),
        }
        unplaced
    }

    /// The retry loop with growing random offsets (Algorithm 1 lines 9–17),
    /// shared by the sequential and parallel drivers. Each `(cell, reason)`
    /// pair carries the cell's most recent failure reason; the reason is
    /// refreshed on every failed retry so the final tally reflects the last
    /// attempt.
    pub(crate) fn retry_loop<S: Sink>(
        &self,
        design: &Design,
        state: &mut PlacementState,
        mut remaining: Vec<(CellId, FailReason)>,
        rng: &mut SmallRng,
        ctx: &mut LegalizeCtx<S>,
    ) -> Result<(), LegalizeError> {
        let mut k = 1u32;
        while !remaining.is_empty() {
            if k > self.cfg.max_retry_iters {
                ctx.stats.fail_counts.retry_budget_exhausted += remaining.len() as u64;
                let (cell, reason) = remaining[0];
                return Err(LegalizeError::Unplaceable {
                    cell,
                    rounds: k - 1,
                    reason,
                });
            }
            ctx.stats.retry_rounds = k;
            let probe = ctx.stats.phases.start();
            if S::ENABLED {
                ctx.sink.begin(Phase::Retry);
                ctx.sink.counter("retry.remaining", remaining.len() as u64);
            }
            let radius_x = i64::from(self.cfg.rx) * i64::from(k - 1);
            let radius_y = i64::from(self.cfg.ry) * i64::from(k - 1);
            let mut still = Vec::new();
            for (cell, _) in remaining {
                let (fx, fy) = design.input_position(cell);
                let dx = if radius_x > 0 {
                    rng.gen_range(-radius_x..=radius_x) as f64
                } else {
                    0.0
                };
                let dy = if radius_y > 0 {
                    rng.gen_range(-radius_y..=radius_y) as f64
                } else {
                    0.0
                };
                match self.try_place(design, state, cell, (fx + dx, fy + dy), ctx, k) {
                    Ok(None) => {}
                    Ok(Some(reason)) => {
                        // Escalation ladder: engage every `AFTER_ROUNDS`-th
                        // round, *after* the normal random-offset attempt so
                        // the RNG stream stays aligned with escalation-off
                        // runs (bit-identical behavior below the engagement
                        // threshold).
                        let engage =
                            self.cfg.escalation.engages() && k.is_multiple_of(AFTER_ROUNDS);
                        let escalated = if engage {
                            self.escalate_cell(design, state, cell, ctx, k)
                        } else {
                            Ok(false)
                        };
                        match escalated {
                            Ok(true) => {}
                            Ok(false) => {
                                let reason = if engage {
                                    ctx.stats
                                        .fail_counts
                                        .record(FailReason::EscalationExhausted);
                                    FailReason::EscalationExhausted
                                } else {
                                    reason
                                };
                                still.push((cell, reason));
                            }
                            Err(e) => {
                                if S::ENABLED {
                                    ctx.sink.end(Phase::Retry);
                                }
                                ctx.stats.phases.stop(Phase::Retry, probe);
                                return Err(e);
                            }
                        }
                    }
                    Err(e) => {
                        if S::ENABLED {
                            ctx.sink.end(Phase::Retry);
                        }
                        ctx.stats.phases.stop(Phase::Retry, probe);
                        return Err(e);
                    }
                }
            }
            remaining = still;
            if S::ENABLED {
                ctx.sink.end(Phase::Retry);
            }
            ctx.stats.phases.stop(Phase::Retry, probe);
            k += 1;
        }
        Ok(())
    }
}

impl Default for Legalizer {
    fn default() -> Self {
        Self::new(LegalizerConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PowerRailMode;
    use mrl_db::DesignBuilder;

    #[test]
    fn legalizes_overlapping_cluster() {
        let mut b = DesignBuilder::new(4, 40);
        for i in 0..10 {
            let c = b.add_cell(format!("c{i}"), 3, 1);
            b.set_input_position(c, 15.0 + 0.1 * i as f64, 1.5);
        }
        let design = b.finish().unwrap();
        let mut state = PlacementState::new(&design);
        let stats = Legalizer::default().legalize(&design, &mut state).unwrap();
        assert_eq!(stats.placed, 10);
        assert_eq!(state.num_placed(), 10);
        // All placements legal by construction of PlacementState; verify
        // all cells got distinct positions.
        let mut seen = std::collections::HashSet::new();
        for (_, p) in state.iter_placed() {
            assert!(seen.insert(p));
        }
    }

    #[test]
    fn legalizes_mixed_heights() {
        let mut b = DesignBuilder::new(6, 30);
        for i in 0..6 {
            let c = b.add_cell(format!("s{i}"), 2, 1);
            b.set_input_position(c, 10.0, 2.0);
        }
        for i in 0..4 {
            let c = b.add_cell(format!("d{i}"), 2, 2);
            b.set_input_position(c, 12.0, 2.0);
        }
        let design = b.finish().unwrap();
        let mut state = PlacementState::new(&design);
        let stats = Legalizer::default().legalize(&design, &mut state).unwrap();
        assert_eq!(stats.placed, 10);
        // Double-height VDD cells must all be on even rows.
        for c in design.movable_cells() {
            if design.cell(c).height() == 2 {
                assert_eq!(state.position(c).unwrap().y % 2, 0);
            }
        }
    }

    #[test]
    fn relaxed_mode_uses_odd_rows_for_double_height() {
        let mut b = DesignBuilder::new(4, 12);
        let c0 = b.add_cell("d0", 2, 2);
        b.set_input_position(c0, 5.0, 1.0);
        let design = b.finish().unwrap();
        let mut state = PlacementState::new(&design);
        let cfg = LegalizerConfig::default().with_rail_mode(PowerRailMode::Relaxed);
        Legalizer::new(cfg).legalize(&design, &mut state).unwrap();
        assert_eq!(state.position(c0).unwrap().y, 1);
    }

    #[test]
    fn snap_clamps_and_finds_compatible_row() {
        let mut b = DesignBuilder::new(4, 20);
        let d = b.add_cell("d", 2, 2); // VDD bottom: rows 0, 2
        let design = b.finish().unwrap();
        let lg = Legalizer::default();
        // y = 1.2 rounds to row 1 (incompatible) -> nearest compatible 0 or 2.
        let p = lg.snap(&design, d, -5.0, 1.2);
        assert_eq!(p.x, 0);
        assert!(p.y == 0 || p.y == 2);
        // Far right clamps x so the cell still fits.
        let p = lg.snap(&design, d, 100.0, 0.0);
        assert_eq!(p.x, 18);
    }

    #[test]
    fn preplaced_cells_stay_placed_and_legal() {
        // A cell placed before legalization may be *shifted* by MLL (that
        // is the point of local legalization) but must remain placed and
        // overlap-free.
        let mut b = DesignBuilder::new(2, 20);
        let pre = b.add_cell("pre", 4, 1);
        let new = b.add_cell("new", 4, 1);
        b.set_input_position(new, 2.0, 0.0);
        let design = b.finish().unwrap();
        let mut state = PlacementState::new(&design);
        state.place(&design, pre, SitePoint::new(2, 0)).unwrap();
        let stats = Legalizer::default().legalize(&design, &mut state).unwrap();
        // Only `new` counted: `pre` was not legalized, just respected.
        assert_eq!(stats.placed, 1);
        assert!(state.is_placed(pre));
        let a = state.rect_of(&design, pre).unwrap();
        let b = state.rect_of(&design, new).unwrap();
        assert!(!a.overlaps(&b));
    }

    #[test]
    fn dense_design_eventually_places_all() {
        // 90% density single row: heavy pushing required.
        let mut b = DesignBuilder::new(1, 100);
        for i in 0..30 {
            let c = b.add_cell(format!("c{i}"), 3, 1);
            b.set_input_position(c, 50.0, 0.0); // everyone wants the middle
        }
        let design = b.finish().unwrap();
        let mut state = PlacementState::new(&design);
        let stats = Legalizer::default().legalize(&design, &mut state).unwrap();
        assert_eq!(stats.placed, 30);
    }

    #[test]
    fn unplaceable_reports_error() {
        // Two 3-wide cells in one 4-wide row: capacity validation passes at
        // the design level only if area fits; so use two rows but a target
        // that can never fit: a 2x2 cell with rail alignment in a floorplan
        // where compatible rows are blocked.
        let mut b = DesignBuilder::new(3, 10);
        let d = b.add_cell("d", 2, 2);
        b.set_input_position(d, 4.0, 0.0);
        // Block row 0 and row 2 entirely: only bottom row 1 remains for a
        // double-height cell, which is rail-incompatible (VDD cell).
        b.add_blockage(mrl_geom::SiteRect::new(0, 0, 10, 1));
        b.add_blockage(mrl_geom::SiteRect::new(0, 2, 10, 1));
        let design = b.finish().unwrap();
        let mut state = PlacementState::new(&design);
        let cfg = LegalizerConfig {
            max_retry_iters: 3,
            ..LegalizerConfig::default()
        };
        let err = Legalizer::new(cfg)
            .legalize(&design, &mut state)
            .unwrap_err();
        assert!(matches!(err, LegalizeError::Unplaceable { cell, .. } if cell == d));
    }

    #[test]
    fn cell_orders_all_converge() {
        for order in [
            CellOrder::Input,
            CellOrder::ByX,
            CellOrder::ByAreaDesc,
            CellOrder::Shuffled,
        ] {
            let mut b = DesignBuilder::new(4, 30);
            for i in 0..8 {
                let c = b.add_cell(format!("c{i}"), 2, 1 + (i % 2));
                b.set_input_position(c, 10.0 + i as f64 * 0.2, 1.0);
            }
            let design = b.finish().unwrap();
            let mut state = PlacementState::new(&design);
            let cfg = LegalizerConfig::default().with_order(order);
            let stats = Legalizer::new(cfg).legalize(&design, &mut state).unwrap();
            assert_eq!(stats.placed, 8, "order {order:?}");
        }
    }

    #[test]
    fn stats_distinguish_direct_and_mll() {
        let mut b = DesignBuilder::new(1, 40);
        let a = b.add_cell("a", 3, 1);
        let c = b.add_cell("c", 3, 1);
        b.set_input_position(a, 5.0, 0.0);
        b.set_input_position(c, 5.0, 0.0); // collides with a
        let design = b.finish().unwrap();
        let mut state = PlacementState::new(&design);
        let stats = Legalizer::default().legalize(&design, &mut state).unwrap();
        assert_eq!(stats.direct, 1);
        assert_eq!(stats.via_mll, 1);
        assert_eq!(stats.mll_calls, 1);
        assert_eq!(stats.retry_rounds, 0);
    }

    #[test]
    fn legalize_subset_replaces_only_the_listed_cells() {
        let mut b = DesignBuilder::new(4, 30);
        let mut ids = Vec::new();
        for i in 0..10 {
            let c = b.add_cell(format!("c{i}"), 3, 1 + (i % 2));
            b.set_input_position(c, 2.0 + 2.5 * i as f64, 1.2);
            ids.push(c);
        }
        let design = b.finish().unwrap();
        let legalizer = Legalizer::default();
        let mut state = PlacementState::new(&design);
        legalizer.legalize(&design, &mut state).unwrap();

        // Rip up two cells, remember everyone else, re-enter on the subset.
        let victims = [ids[3], ids[7]];
        for &v in &victims {
            state.remove(&design, v).unwrap();
        }
        let others: Vec<_> = state.snapshot();
        let mut ctx = LegalizeCtx::new();
        legalizer
            .legalize_subset(&design, &mut state, &victims, &mut ctx)
            .unwrap();
        let stats = ctx.stats;
        assert_eq!(stats.placed, 2);
        for &v in &victims {
            assert!(state.is_placed(v), "{v} must be re-placed");
        }
        // The subset pass may shift neighbors through MLL, but every cell
        // the legalizer did not need to move stays where it was.
        let moved = state.count_moved(&others);
        assert!(moved <= 2 + stats.via_mll * 4, "moved={moved}");
        state.verify_index(&design).unwrap();
        // Already-placed listed cells are skipped, not an error.
        legalizer
            .legalize_subset(&design, &mut state, &victims, &mut ctx)
            .unwrap();
        assert_eq!(ctx.stats.placed, 0);
    }
}
