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
//! Scheduling is work-stealing rather than two global waves: even-indexed
//! stripes are ready immediately, and each odd stripe becomes ready the
//! moment both of its even neighbours have *resolved* (finished and had
//! their diff validated against their halo). Workers pull ready stripes
//! from a shared queue, so a slow even stripe never stalls distant work
//! the way a wave barrier would.
//!
//! Workers legalize each stripe against a snapshot of the master placement
//! plus the validated diffs of its even neighbours, and report a per-stripe
//! *diff* (cells placed or shifted) read from a savepoint the worker opens
//! on its snapshot for the stripe. This preserves the wave semantics
//! exactly: a stripe's computation only reads placement state inside its
//! halo, validated non-neighbour diffs are halo-disjoint and therefore
//! unobservable, and a discarded (conflicting) neighbour diff is invisible
//! in both designs. Each stripe's result is thus a pure function of the
//! snapshot and the validated diffs of its even neighbours — independent of
//! thread count and claim order. Diffs are applied to the master in
//! (parity, stripe) order at the end, so **the final placement is
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
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

/// One cell's placement change within a stripe.
#[derive(Clone, Copy, Debug)]
struct DiffEntry {
    cell: CellId,
    /// Position before the stripe ran (`None` = unplaced).
    old: Option<SitePoint>,
    /// Position after the stripe ran.
    new: SitePoint,
}

/// Everything a worker reports for one stripe. The stripe index itself is
/// the slot in [`Sched::results`].
#[derive(Debug)]
struct StripeResult {
    diff: Vec<DiffEntry>,
    /// Cells the first-pass attempt could not place, in visit order, with
    /// the failure reason of the attempt.
    failed: Vec<(CellId, FailReason)>,
    /// The stripe's first-pass counters and phase ledger.
    stats: LegalizeStats,
    /// The stripe's trace lane, when the run is traced; absorbed into the
    /// caller's trace in stripe order at the merge so the merged trace is
    /// independent of the thread count.
    trace: Option<TraceBuf>,
    /// A database error inside the worker (indicates a bug); the stripe's
    /// diff is discarded and the error propagated at the merge.
    error: Option<LegalizeError>,
    /// Set at the merge when the diff escaped the stripe halo.
    conflicted: bool,
}

impl StripeResult {
    fn empty(trace: Option<TraceBuf>) -> Self {
        StripeResult {
            diff: Vec::new(),
            failed: Vec::new(),
            stats: LegalizeStats::default(),
            trace,
            error: None,
            conflicted: false,
        }
    }
}

/// Shared scheduler state (one mutex): the ready queue, the per-odd-stripe
/// dependency counters, finished stripe results, and the resolution
/// verdicts of even stripes (`Some(Some(diff))` = validated, `Some(None)` =
/// discarded, `None` = not yet resolved).
struct Sched {
    ready: VecDeque<usize>,
    /// Stripes not yet claimed by a worker; 0 means workers may exit.
    unclaimed: usize,
    deps_left: Vec<u8>,
    results: Vec<Option<StripeResult>>,
    resolved: Vec<Option<Option<Arc<Vec<DiffEntry>>>>>,
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
        if unplaced.is_empty() {
            ctx.stats.wall = wall.elapsed();
            return Ok(());
        }

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

        let active: Vec<bool> = stripes.iter().map(|s| !s.is_empty()).collect();
        let total = ctx.stats.stripes;
        let halo_of = |i: usize| {
            let x0 = bounds.x + i as i32 * stripe_w;
            (x0 - cfg.rx - wmax, x0 + stripe_w + cfg.rx + wmax)
        };
        // Dependency-resolved work-stealing schedule: even stripes are
        // ready at once; odd stripe `i` becomes ready when its active even
        // neighbours (`i ± 1`) have resolved. The wave structure is thus a
        // special case (every even before every odd), but workers here flow
        // straight into ready odd stripes instead of idling at a barrier.
        let even_neighbors = |i: usize| {
            [i.checked_sub(1), Some(i + 1)]
                .into_iter()
                .flatten()
                .filter(|&j| j < nstripes && active[j])
                .collect::<Vec<usize>>()
        };
        let mut sched = Sched {
            ready: VecDeque::new(),
            unclaimed: total,
            deps_left: vec![0; nstripes],
            results: (0..nstripes).map(|_| None).collect(),
            resolved: vec![None; nstripes],
        };
        for (i, &is_active) in active.iter().enumerate() {
            if !is_active {
                continue;
            }
            if i % 2 == 0 {
                sched.ready.push_back(i);
            } else {
                sched.deps_left[i] = even_neighbors(i).len() as u8;
                if sched.deps_left[i] == 0 {
                    sched.ready.push_back(i);
                }
            }
        }
        let sched = Mutex::new(sched);
        let cv = Condvar::new();
        let workers = threads.min(total);
        let master: &PlacementState = state;
        let trace = ctx.trace.as_ref();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    // Per-worker reusable state: one scratch arena, one
                    // placement snapshot, and the set of stripe diffs
                    // (own runs + applied neighbour diffs) the snapshot
                    // has absorbed since it was cloned.
                    let mut arena = ScratchArena::new();
                    let mut local: Option<PlacementState> = None;
                    let mut has: Vec<usize> = Vec::new();
                    loop {
                        // Claim a ready stripe, with the validated diffs of
                        // its even neighbours (resolved by construction).
                        let (t, wanted) = {
                            let mut g = sched.lock().unwrap();
                            let t = loop {
                                if g.unclaimed == 0 {
                                    return;
                                }
                                if let Some(t) = g.ready.pop_front() {
                                    g.unclaimed -= 1;
                                    break t;
                                }
                                g = cv.wait(g).unwrap();
                            };
                            let mut wanted: Vec<(usize, Arc<Vec<DiffEntry>>)> = Vec::new();
                            if t % 2 == 1 {
                                for j in even_neighbors(t) {
                                    let outcome =
                                        g.resolved[j].as_ref().expect("dependency resolved");
                                    if let Some(diff) = outcome {
                                        wanted.push((j, Arc::clone(diff)));
                                    }
                                }
                            }
                            (t, wanted)
                        };
                        // The snapshot is reusable iff it has not absorbed
                        // this stripe's own diff nor a neighbour diff
                        // outside the wanted set; everything further away
                        // is halo-disjoint and unobservable.
                        let reuse = local.is_some()
                            && !has.contains(&t)
                            && has.iter().all(|&h| {
                                (h + 1 != t && h != t + 1) || wanted.iter().any(|&(j, _)| j == h)
                            });
                        if !reuse {
                            local = Some(master.clone());
                            has.clear();
                        }
                        let lstate = local.as_mut().expect("snapshot prepared");
                        let mut prep_error: Option<DbError> = None;
                        for (j, diff) in &wanted {
                            if has.contains(j) {
                                continue;
                            }
                            if let Err(e) = self.apply_diff(design, lstate, diff) {
                                prep_error = Some(e);
                                break;
                            }
                            has.push(*j);
                        }
                        has.push(t);
                        let lane = trace.map(|trace| trace.lane(t as u32 + 1));
                        let mut res = if let Some(e) = prep_error {
                            // Applying a validated diff can only fail on an
                            // internal inconsistency; report it via the
                            // stripe result like any worker error.
                            let mut r = StripeResult::empty(lane);
                            r.error = Some(e.into());
                            r
                        } else {
                            self.run_stripe(design, lstate, &stripes[t], &mut arena, lane)
                        };
                        // Resolve: even stripes validate eagerly so their
                        // dependants can start; the merge reuses this
                        // verdict (the check is a pure function).
                        let mut g = sched.lock().unwrap();
                        if t % 2 == 0 {
                            let outcome = (res.error.is_none()
                                && diff_within_halo(design, &res.diff, halo_of(t)))
                            .then(|| Arc::new(std::mem::take(&mut res.diff)));
                            g.resolved[t] = Some(outcome);
                            for j in [t.checked_sub(1), Some(t + 1)].into_iter().flatten() {
                                if j < nstripes && active[j] && j % 2 == 1 {
                                    g.deps_left[j] -= 1;
                                    if g.deps_left[j] == 0 {
                                        g.ready.push_back(j);
                                    }
                                }
                            }
                        }
                        g.results[t] = Some(res);
                        cv.notify_all();
                    }
                });
            }
        });

        // Merge in (parity, stripe) order — the exact order the two-wave
        // scheduler used — so master mutations, statistics, residue, and
        // trace-event order are independent of claim order and threads.
        let sched = sched.into_inner().unwrap();
        let mut residue: Vec<(CellId, FailReason)> = Vec::new();
        let mut results = sched.results;
        for parity in 0..2usize {
            for t in (0..nstripes).filter(|&i| i % 2 == parity && active[i]) {
                let mut res = results[t].take().expect("stripe ran");
                if let Some(e) = res.error {
                    ctx.stats.wall = wall.elapsed();
                    return Err(e);
                }
                if parity == 0 {
                    // Reuse the eager validation verdict.
                    match sched.resolved[t]
                        .as_ref()
                        .expect("even stripe resolved")
                        .as_ref()
                    {
                        Some(diff) => res.diff = diff.to_vec(),
                        None => {
                            res.diff.clear();
                            res.conflicted = true;
                        }
                    }
                } else {
                    res.conflicted = !diff_within_halo(design, &res.diff, halo_of(t));
                }
                if res.conflicted {
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
                if let Err(e) = self.apply_diff(design, state, &res.diff) {
                    ctx.stats.wall = wall.elapsed();
                    return Err(e.into());
                }
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

        // The residue pass runs sequentially in the caller's context, so
        // its events follow every absorbed stripe.
        ctx.stats.residue = residue.len();
        let result = self.retry_loop(design, state, residue, &mut rng, ctx);
        ctx.stats.wall = wall.elapsed();
        result
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
            conflicted: false,
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
