//! Parallel windowed legalization driver.
//!
//! The first pass of Algorithm 1 visits every unplaced cell once and runs
//! MLL inside a window of half-width `Rx` around the cell's snapped input
//! position. Two cells whose windows cannot interact can therefore be
//! legalized concurrently. This driver bins unplaced cells into vertical
//! *stripes* of width `W = 2·(Rx + wmax)` (`wmax` = widest movable cell),
//! which guarantees that the *halo* of stripe `i` — the union of every
//! window read or mutated by cells binned to it, `[x_i − Rx − wmax,
//! x_{i+1} + Rx + wmax)` — is disjoint from the halo of stripe `i ± 2`.
//!
//! The first pass therefore runs in two waves: every even stripe, then
//! every odd stripe. In a wave, up to `threads` workers claim the next
//! stripe from one atomic counter and run it on the worker's own clone of
//! the master placement, taken at the start of the wave. A worker reports
//! a per-stripe *diff* (cells placed or shifted) read from a savepoint it
//! opens on its clone for the stripe. Whatever else the clone absorbed —
//! the worker's earlier stripes of the same wave — lies outside the
//! stripe's halo and is unobservable, so each stripe's result is a pure
//! function of the master at the start of its wave, independent of thread
//! count and claim order.
//!
//! After each wave the caller walks the results in stripe order: it checks
//! each diff against its halo, applies it to the master, and merges the
//! stripe's counters, residue and trace lane. The odd wave thus starts
//! from exactly the validated even diffs, and **the final placement is
//! bit-identical for any thread count**, including one. A diff that escapes
//! its halo (impossible by construction; checked defensively) is discarded
//! and its stripe's cells join the *residue*: first-pass failures that are
//! handed to the ordinary sequential retry loop with the configured seed.
//!
//! Determinism notes: the parallel phase consumes no randomness (first-pass
//! attempts happen at the snapped input positions); the driver RNG is used
//! only for the `Shuffled` cell order and the sequential retry loop, both
//! of which are independent of the thread count.

use crate::legalizer::{LegalizeCtx, LegalizeError, Legalizer};
use crate::scratch::ScratchArena;
use mrl_db::{CellId, DbError, Design, PlacementState};
use mrl_geom::SitePoint;
use mrl_trace::{FailReason, LegalizeStats, TraceBuf};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One cell's placement change within a stripe.
#[derive(Clone, Copy, Debug)]
struct DiffEntry {
    cell: CellId,
    /// Position before the stripe ran (`None` = unplaced).
    old: Option<SitePoint>,
    /// Position after the stripe ran.
    new: SitePoint,
}

/// Everything a worker reports for one stripe.
#[derive(Debug)]
struct StripeResult {
    diff: Vec<DiffEntry>,
    /// Cells the first-pass attempt could not place, in visit order, with
    /// the failure reason of the attempt.
    failed: Vec<(CellId, FailReason)>,
    /// The stripe's first-pass counters and phase ledger.
    stats: LegalizeStats,
    /// The stripe's trace lane, when the run is traced; absorbed into the
    /// caller's trace in stripe order after the wave, so the merged trace
    /// is independent of the thread count.
    trace: Option<TraceBuf>,
    /// A database error inside the worker (indicates a bug); propagated
    /// when the caller reaches the stripe.
    error: Option<LegalizeError>,
}

impl Legalizer {
    /// Legalizes every unplaced movable cell like
    /// [`legalize`](Legalizer::legalize), running the first pass over
    /// vertical stripes on up to `threads` worker threads.
    ///
    /// The final placement depends only on the configuration and seed, not
    /// on `threads`: any thread count (including 1) produces bit-identical
    /// positions. Note the stripe schedule visits cells in a different
    /// order than the sequential driver, so `legalize_parallel(…, 1)` —
    /// not [`legalize`](Legalizer::legalize) — is the reference for
    /// equality tests.
    ///
    /// # Errors
    ///
    /// Same as [`legalize`](Legalizer::legalize).
    pub fn legalize_parallel(
        &self,
        design: &Design,
        state: &mut PlacementState,
        threads: usize,
    ) -> Result<LegalizeStats, LegalizeError> {
        let mut ctx = LegalizeCtx::new();
        self.legalize_parallel_with(design, state, threads, &mut ctx)
            .map(|()| ctx.stats)
    }

    /// [`legalize_parallel`](Legalizer::legalize_parallel) in a
    /// caller-owned context.
    ///
    /// With a trace attached, each stripe records into its own lane
    /// (`stripe index + 1`, forked from `ctx.trace`). The lanes are
    /// absorbed into `ctx.trace` in (parity, stripe) order, and the
    /// sequential residue pass then records into `ctx.trace` itself, so
    /// the event sequence (and every derived counter or histogram) is
    /// identical for any thread count; only timestamps vary.
    /// The run's statistics land in `ctx.stats` whether or not it
    /// succeeds.
    ///
    /// # Errors
    ///
    /// Same as [`legalize`](Legalizer::legalize).
    pub fn legalize_parallel_with(
        &self,
        design: &Design,
        state: &mut PlacementState,
        threads: usize,
        ctx: &mut LegalizeCtx,
    ) -> Result<(), LegalizeError> {
        let wall = std::time::Instant::now();
        let threads = threads.max(1);
        let cfg = self.config();
        ctx.stats = LegalizeStats {
            threads,
            ..LegalizeStats::default()
        };
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let unplaced = self.ordered_unplaced(design, state, &mut rng);

        // Stripe geometry. `wmax` ranges over all movable cells: any of
        // them may be shifted by an MLL realization.
        let wmax = design
            .movable_cells()
            .map(|c| design.cell(c).width())
            .max()
            .unwrap_or(1);
        let bounds = design.floorplan().bounds();
        let stripe_w = (2 * (cfg.rx + wmax)).max(1);
        let nstripes = ((bounds.w + stripe_w - 1) / stripe_w).max(1) as usize;

        // Bin by snapped first-pass position; order within a stripe is the
        // global visiting order.
        let mut stripes: Vec<Vec<CellId>> = vec![Vec::new(); nstripes];
        for &cell in &unplaced {
            let (fx, fy) = design.input_position(cell);
            let pos = self.snap(design, cell, fx, fy);
            let idx = (((pos.x - bounds.x) / stripe_w).max(0) as usize).min(nstripes - 1);
            stripes[idx].push(cell);
        }
        ctx.stats.stripes = stripes.iter().filter(|s| !s.is_empty()).count();
        let halo_of = |i: usize| {
            let x0 = bounds.x + i as i32 * stripe_w;
            (x0 - cfg.rx - wmax, x0 + stripe_w + cfg.rx + wmax)
        };

        // The residue pass runs sequentially in the caller's context, so
        // its events follow every absorbed stripe.
        let result = self
            .first_pass(design, state, &stripes, halo_of, threads, ctx)
            .and_then(|residue| {
                ctx.stats.residue = residue.len();
                self.retry_loop(design, state, residue, &mut rng, ctx)
            });
        ctx.stats.wall = wall.elapsed();
        result
    }

    /// The first pass: the even wave, then the odd wave. After each wave
    /// its results are merged into `state` and `ctx` in stripe order, so
    /// master mutations, statistics, residue and trace-event order do not
    /// depend on which worker ran which stripe. Returns the residue.
    fn first_pass(
        &self,
        design: &Design,
        state: &mut PlacementState,
        stripes: &[Vec<CellId>],
        halo_of: impl Fn(usize) -> (i32, i32),
        threads: usize,
        ctx: &mut LegalizeCtx,
    ) -> Result<Vec<(CellId, FailReason)>, LegalizeError> {
        let mut residue: Vec<(CellId, FailReason)> = Vec::new();
        for parity in 0..2 {
            let wave: Vec<usize> = (parity..stripes.len())
                .step_by(2)
                .filter(|&i| !stripes[i].is_empty())
                .collect();
            for (t, res) in
                self.run_wave(design, state, stripes, &wave, threads, ctx.trace.as_ref())
            {
                if let Some(e) = res.error {
                    return Err(e);
                }
                if !diff_within_halo(design, &res.diff, halo_of(t)) {
                    // Boundary conflict: discard the stripe wholesale —
                    // diff, events, and tallies — and re-legalize its cells
                    // sequentially. The reason is a placeholder: it only
                    // surfaces if the retry budget is zero, and the retry
                    // loop refreshes it on every real attempt.
                    ctx.stats.conflicts += 1;
                    residue.extend(
                        stripes[t]
                            .iter()
                            .map(|&c| (c, FailReason::NoInsertionPoint)),
                    );
                    continue;
                }
                self.apply_diff(design, state, &res.diff)?;
                let (stats, part) = (&mut ctx.stats, &res.stats);
                stats.placed += part.placed;
                stats.direct += part.direct;
                stats.via_mll += part.via_mll;
                stats.mll_calls += part.mll_calls;
                stats.phases.merge(&part.phases);
                stats.fail_counts.merge(&part.fail_counts);
                residue.extend_from_slice(&res.failed);
                if let (Some(trace), Some(lane)) = (&mut ctx.trace, res.trace) {
                    trace.absorb(lane);
                }
            }
        }
        Ok(residue)
    }

    /// Runs one wave's stripes on up to `threads` workers. Each worker
    /// claims the next stripe from a shared counter and runs it on its own
    /// clone of `master`; stripes of one wave have disjoint halos, so what
    /// a clone absorbed from the worker's earlier stripes is unobservable.
    /// Returns `(stripe, result)` pairs in stripe order.
    fn run_wave(
        &self,
        design: &Design,
        master: &PlacementState,
        stripes: &[Vec<CellId>],
        wave: &[usize],
        threads: usize,
        trace: Option<&TraceBuf>,
    ) -> Vec<(usize, StripeResult)> {
        // `Relaxed` is enough: the counter only hands out wave indices, and
        // the results come back through `join`.
        let next = AtomicUsize::new(0);
        let mut results: Vec<(usize, StripeResult)> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads.min(wave.len()))
                .map(|_| {
                    scope.spawn(|| {
                        let mut local = master.clone();
                        let mut arena = ScratchArena::new();
                        let mut done = Vec::new();
                        while let Some(&t) = wave.get(next.fetch_add(1, Ordering::Relaxed)) {
                            let lane = trace.map(|trace| trace.lane(t as u32 + 1));
                            let res =
                                self.run_stripe(design, &mut local, &stripes[t], &mut arena, lane);
                            done.push((t, res));
                        }
                        done
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        });
        results.sort_by_key(|&(t, _)| t);
        results
    }

    /// First-pass legalization of one stripe's cells against `local`,
    /// collecting the placement diff instead of touching the master: the
    /// cells a savepoint on `local` journaled, with their final positions.
    fn run_stripe(
        &self,
        design: &Design,
        local: &mut PlacementState,
        cells: &[CellId],
        arena: &mut ScratchArena,
        trace: Option<TraceBuf>,
    ) -> StripeResult {
        let mut ctx = LegalizeCtx {
            arena: std::mem::take(arena),
            stats: LegalizeStats::default(),
            trace,
        };
        ctx.counter("stripe.cells", cells.len() as u64);
        let mut failed = Vec::new();
        let mut error = None;
        let sp = local.savepoint();
        for &cell in cells {
            match self.try_place(
                design,
                local,
                cell,
                design.input_position(cell),
                &mut ctx,
                0,
            ) {
                Ok(None) => {}
                Ok(Some(reason)) => failed.push((cell, reason)),
                Err(e) => {
                    error = Some(e);
                    break;
                }
            }
        }
        // Drop no-op entries (a neighbour shifted away and back) and make
        // the order canonical for the halo check and master apply.
        let mut diff: Vec<DiffEntry> = local
            .journal(&sp)
            .iter()
            .filter_map(|&(cell, old)| {
                let new = local.position(cell)?;
                (old != Some(new)).then_some(DiffEntry { cell, old, new })
            })
            .collect();
        diff.sort_by_key(|d| d.cell);
        local.release(sp);
        *arena = ctx.arena;
        StripeResult {
            diff,
            failed,
            stats: ctx.stats,
            trace: ctx.trace,
            error,
        }
    }

    /// Applies one validated stripe diff to the master state: neighbour
    /// shifts as a batch, then the newly placed cells.
    fn apply_diff(
        &self,
        design: &Design,
        state: &mut PlacementState,
        diff: &[DiffEntry],
    ) -> Result<(), DbError> {
        let moves: Vec<(CellId, i32)> = diff
            .iter()
            .filter(|d| d.old.is_some())
            .map(|d| (d.cell, d.new.x))
            .collect();
        if !moves.is_empty() {
            state.shift_batch(design, &moves)?;
        }
        for d in diff.iter().filter(|d| d.old.is_none()) {
            self.config()
                .rail_mode
                .place(design, state, d.cell, d.new)?;
        }
        Ok(())
    }
}

/// True if every footprint the diff touches (old and new) lies within
/// `halo = [lo, hi)` horizontally and shifts stay on their row.
fn diff_within_halo(design: &Design, diff: &[DiffEntry], halo: (i32, i32)) -> bool {
    diff.iter().all(|d| {
        let w = design.cell(d.cell).width();
        let span_ok = |p: SitePoint| p.x >= halo.0 && p.x + w <= halo.1;
        span_ok(d.new)
            && match d.old {
                Some(old) => span_ok(old) && old.y == d.new.y,
                None => true,
            }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CellOrder, LegalizerConfig, PowerRailMode};
    use mrl_db::DesignBuilder;

    fn clustered_design(cols: i32, rows: i32, cells: usize) -> Design {
        let mut b = DesignBuilder::new(rows, cols);
        for i in 0..cells {
            let w = 2 + (i % 3) as i32;
            let h = 1 + (i % 2) as i32;
            let c = b.add_cell(format!("c{i}"), w, h);
            // Deterministic pseudo-random clustering without an RNG.
            let x = ((i as f64 * 37.7) % f64::from(cols - 6)).abs();
            let y = ((i as f64 * 11.3) % f64::from(rows - 2)).abs();
            b.set_input_position(c, x, y);
        }
        b.finish().unwrap()
    }

    fn positions(state: &PlacementState) -> Vec<(CellId, SitePoint)> {
        let mut v: Vec<_> = state.iter_placed().collect();
        v.sort();
        v
    }

    #[test]
    fn thread_counts_agree_bitwise() {
        let design = clustered_design(160, 8, 120);
        let lg = Legalizer::new(LegalizerConfig::default().with_window(10, 3));
        let mut reference = None;
        for threads in [1usize, 2, 4] {
            let mut state = PlacementState::new(&design);
            let stats = lg.legalize_parallel(&design, &mut state, threads).unwrap();
            assert_eq!(stats.placed, 120, "threads {threads}");
            assert_eq!(stats.threads, threads);
            assert!(stats.stripes > 1, "want a multi-stripe schedule");
            let got = positions(&state);
            match &reference {
                None => reference = Some(got),
                Some(want) => assert_eq!(want, &got, "threads {threads} diverged"),
            }
        }
    }

    #[test]
    fn parallel_matches_on_shuffled_order() {
        let design = clustered_design(120, 6, 60);
        let cfg = LegalizerConfig::default()
            .with_window(8, 2)
            .with_order(CellOrder::Shuffled)
            .with_rail_mode(PowerRailMode::Relaxed);
        let lg = Legalizer::new(cfg);
        let mut a = PlacementState::new(&design);
        let mut b = PlacementState::new(&design);
        lg.legalize_parallel(&design, &mut a, 1).unwrap();
        lg.legalize_parallel(&design, &mut b, 3).unwrap();
        assert_eq!(positions(&a), positions(&b));
    }

    #[test]
    fn respects_preplaced_cells() {
        let mut b = DesignBuilder::new(2, 60);
        let pre = b.add_cell("pre", 4, 1);
        let mut movers = Vec::new();
        for i in 0..6 {
            let c = b.add_cell(format!("m{i}"), 3, 1);
            b.set_input_position(c, 10.0 + i as f64, 0.0);
            movers.push(c);
        }
        let design = b.finish().unwrap();
        let mut state = PlacementState::new(&design);
        state.place(&design, pre, SitePoint::new(12, 0)).unwrap();
        let stats = Legalizer::default()
            .legalize_parallel(&design, &mut state, 2)
            .unwrap();
        assert_eq!(stats.placed, 6);
        assert!(state.is_placed(pre));
        assert_eq!(state.num_placed(), 7);
    }

    #[test]
    fn empty_design_is_a_noop() {
        let design = DesignBuilder::new(2, 20).finish().unwrap();
        let mut state = PlacementState::new(&design);
        let stats = Legalizer::default()
            .legalize_parallel(&design, &mut state, 4)
            .unwrap();
        assert_eq!(stats.placed, 0);
        assert_eq!(stats.stripes, 0);
    }

    #[test]
    fn stats_account_for_all_cells() {
        let design = clustered_design(100, 4, 50);
        let lg = Legalizer::new(LegalizerConfig::default().with_window(12, 2));
        let mut state = PlacementState::new(&design);
        let stats = lg.legalize_parallel(&design, &mut state, 4).unwrap();
        assert_eq!(stats.placed, 50);
        assert_eq!(state.num_placed(), 50);
        assert!(stats.phases.extract_calls > 0);
        assert!(stats.wall.as_nanos() > 0);
    }
}
