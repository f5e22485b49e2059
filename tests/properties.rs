//! Property-based cross-validation of the core algorithms.
//!
//! Random small designs are generated directly by proptest strategies
//! (independent of `mrl-synth`) so shrinking produces minimal
//! counterexamples. The properties tie independent implementations
//! together:
//!
//! * legalization output always satisfies the independent checker,
//! * the scanline insertion-point enumeration equals a naive
//!   reference enumerator,
//! * the exact evaluator's cost equals the realized displacement,
//! * exact-mode MLL equals the MILP local optimum,
//! * leftmost/rightmost placements bound every legal same-order position,
//! * the occupancy index's `span_is_free` equals the free gaps rebuilt
//!   from the cell lists,
//! * nested journal savepoints roll back exactly and fold like a flat log.

use mrl_db::{CellId, Design, DesignBuilder, PlacementState, Savepoint, SegId};
use mrl_geom::{Interval, PowerRail, SitePoint, SiteRect};
use mrl_legalize::{
    enumerate_insertion_points, find_best_insertion_point, mll, realize, EvalMode, LegalizeCtx,
    Legalizer, LegalizerConfig, LocalRegion, PowerRailMode, TargetSpec,
};
use mrl_metrics::{check_legal, RailCheck};
use proptest::prelude::*;

/// A randomly generated legal mini-placement plus an unplaced target.
#[derive(Clone, Debug)]
struct Scenario {
    rows: i32,
    width: i32,
    /// (w, h) of placed cells; positions assigned greedily.
    placed: Vec<(i32, i32)>,
    target: (i32, i32),
    target_pos: (i32, i32),
    seed: u64,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (
        2..5i32,                                              // rows
        12..40i32,                                            // width
        proptest::collection::vec((1..5i32, 1..3i32), 0..10), // placed cells
        (1..5i32, 1..4i32),                                   // target dims (h up to 3)
        any::<u64>(),
    )
        .prop_map(|(rows, width, placed, target, seed)| Scenario {
            rows,
            width,
            placed,
            target,
            target_pos: (0, 0),
            seed,
        })
        .prop_flat_map(|s| {
            let rows = s.rows;
            let width = s.width;
            ((0..width.max(1)), (0..rows)).prop_map(move |(tx, ty)| Scenario {
                target_pos: (tx, ty),
                ..s.clone()
            })
        })
}

/// The deterministic scatter LCG of the placement workloads below.
struct Lcg(u64);

impl Lcg {
    /// The next value in `0..n` (`0..1` for `n = 0`).
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) % n.max(1)
    }
}

/// Builds the design and places the pre-placed cells greedily with a
/// deterministic pseudo-random scatter; returns None when the instance is
/// degenerate (e.g. nothing fits).
fn build(s: &Scenario) -> Option<(Design, PlacementState, CellId)> {
    let mut b = DesignBuilder::new(s.rows, s.width);
    let mut ids = Vec::new();
    for (i, &(w, h)) in s.placed.iter().enumerate() {
        if h > s.rows {
            return None;
        }
        ids.push(b.add_cell(format!("p{i}"), w, h));
    }
    let (tw, th) = s.target;
    if th > s.rows {
        return None;
    }
    let target = b.add_cell("target", tw, th);
    let design = b.finish().ok()?;
    let mut state = PlacementState::new(&design);
    // Scatter deterministically: try pseudo-random spots, skip failures.
    let mut rng = Lcg(s.seed | 1);
    for &id in &ids {
        let c = design.cell(id);
        for _ in 0..30 {
            let x = rng.below(s.width as u64) as i32;
            let y = rng.below(s.rows as u64) as i32;
            let pos = SitePoint::new(x.min(s.width - c.width()), y.min(s.rows - c.height()));
            if state.place_ignoring_rails(&design, id, pos).is_ok() {
                break;
            }
        }
    }
    Some((design, state, target))
}

/// Reference enumerator: all combinations of one interval per consecutive
/// row with a common cutline, side-consistent across every multi-row cell.
fn naive_insertion_points(
    region: &LocalRegion,
    design: &Design,
    target: &TargetSpec,
    relaxed: bool,
) -> Vec<(usize, Vec<mrl_legalize::InsInterval>)> {
    let ht = target.h as usize;
    let hw = region.height();
    if hw < ht {
        return Vec::new();
    }
    let intervals = region.insertion_intervals(target.w);
    let mut out = Vec::new();
    for t in 0..=(hw - ht) {
        if !relaxed
            && !design.floorplan().rail_compatible(
                target.rail,
                target.h,
                region.bottom_row + t as i32,
            )
        {
            continue;
        }
        // Cartesian product over rows t..t+ht.
        let per_row: Vec<Vec<&mrl_legalize::InsInterval>> = (t..t + ht)
            .map(|r| intervals.iter().filter(|iv| iv.row == r).collect())
            .collect();
        if per_row.iter().any(Vec::is_empty) {
            continue;
        }
        let mut idx = vec![0usize; ht];
        loop {
            let combo: Vec<&mrl_legalize::InsInterval> =
                idx.iter().zip(&per_row).map(|(&i, v)| v[i]).collect();
            // Common cutline?
            let feasible = combo
                .iter()
                .fold(Interval::new(i32::MIN, i32::MAX), |acc, iv| {
                    acc.intersect(&iv.range)
                });
            if !feasible.is_empty() && side_consistent(region, &combo) {
                out.push((t, combo.iter().map(|&iv| *iv).collect()));
            }
            // Advance the mixed-radix counter.
            let mut k = 0;
            loop {
                if k == ht {
                    break;
                }
                idx[k] += 1;
                if idx[k] < per_row[k].len() {
                    break;
                }
                idx[k] = 0;
                k += 1;
            }
            if k == ht {
                break;
            }
        }
    }
    out
}

/// True when no multi-row cell has combo gaps on both of its sides.
fn side_consistent(region: &LocalRegion, combo: &[&mrl_legalize::InsInterval]) -> bool {
    for ci in 0..region.cells.len() as u32 {
        let (cy, ch) = (region.cells.y[ci as usize], region.cells.h[ci as usize]);
        if ch <= 1 {
            continue;
        }
        let mut side: Option<bool> = None;
        for iv in combo {
            let row = region.bottom_row + iv.row as i32;
            if row < cy || row >= cy + ch {
                continue;
            }
            let pos = region.cells.pos_in_row(ci, (row - cy) as usize) as usize;
            let is_left = iv.gap <= pos;
            match side {
                None => side = Some(is_left),
                Some(s) if s != is_left => return false,
                Some(_) => {}
            }
        }
    }
    true
}

fn canon(points: &mut [(usize, Vec<mrl_legalize::InsInterval>)]) {
    points.sort_by_key(|(t, combo)| {
        (
            *t,
            combo.iter().map(|iv| (iv.row, iv.gap)).collect::<Vec<_>>(),
        )
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Whenever legalization completes, its output is legal; completion
    /// itself is only guaranteed when the instance is not adversarial.
    ///
    /// MLL never moves a placed cell vertically (Section 4 of the paper
    /// fixes y at placement time), so a tiny floorplan where every
    /// double-height cell competes for the single rail-compatible row can
    /// deadlock under an unlucky order. Real floorplans have hundreds of
    /// rows; here we tolerate `Unplaceable` on the adversarial strips and
    /// assert full legality everywhere else.
    #[test]
    fn legalizer_output_is_always_legal(s in scenario()) {
        // Random fractional input positions derived from the scenario.
        let mut b = DesignBuilder::new(s.rows, s.width.max(16));
        let mut rng_state = s.seed | 1;
        let mut next = || {
            rng_state = rng_state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (rng_state >> 33) as f64 / (u32::MAX as f64)
        };
        let mut total_area = 0i64;
        let capacity = i64::from(s.rows) * i64::from(s.width.max(16));
        for (i, &(w, h)) in s.placed.iter().enumerate() {
            if h > s.rows {
                continue;
            }
            if total_area + i64::from(w) * i64::from(h) > capacity * 7 / 10 {
                break; // keep density below 70% so instances stay feasible
            }
            total_area += i64::from(w) * i64::from(h);
            let id = b.add_cell(format!("c{i}"), w, h);
            let fx = next() * f64::from(s.width.max(16) - w);
            let fy = next() * f64::from(s.rows - h);
            b.set_input_position(id, fx, fy);
        }
        let design = b.finish().expect("under capacity by construction");
        let mut state = PlacementState::new(&design);
        // Large-first order avoids most double-height deadlocks, like a
        // user would configure for thin floorplans.
        let mut cfg = LegalizerConfig::default()
            .with_seed(s.seed)
            .with_order(mrl_legalize::CellOrder::ByAreaDesc);
        cfg.max_retry_iters = 128;
        match Legalizer::new(cfg).legalize(&design, &mut state) {
            Ok(_) => {
                prop_assert!(check_legal(&design, &state, RailCheck::Enforce).is_ok());
            }
            Err(mrl_legalize::LegalizeError::Unplaceable { .. }) => {
                // Tolerated only on adversarial thin strips (see above);
                // everything that *was* placed must still be disjoint.
                let mut rects: Vec<SiteRect> = state
                    .iter_placed()
                    .map(|(id, _)| state.rect_of(&design, id).expect("placed"))
                    .collect();
                rects.sort_by_key(|r| (r.y, r.x));
                for i in 0..rects.len() {
                    for j in i + 1..rects.len() {
                        prop_assert!(!rects[i].overlaps(&rects[j]));
                    }
                }
            }
            Err(e) => return Err(TestCaseError::fail(format!("db error: {e}"))),
        }
    }

    /// The scanline enumeration produces exactly the naive reference set.
    #[test]
    fn scanline_matches_naive_enumeration(s in scenario()) {
        let Some((design, state, target)) = build(&s) else { return Ok(()) };
        let cell = design.cell(target);
        let window = SiteRect::new(0, 0, s.width, s.rows);
        let region = LocalRegion::extract(&design, &state, window);
        let spec = TargetSpec {
            w: cell.width(),
            h: cell.height(),
            x: s.target_pos.0,
            y: s.target_pos.1,
            rail: PowerRail::Vdd,
        };
        for relaxed in [true, false] {
            let cfg = LegalizerConfig::default().with_rail_mode(if relaxed {
                PowerRailMode::Relaxed
            } else {
                PowerRailMode::Aligned
            });
            let mut scan: Vec<(usize, Vec<mrl_legalize::InsInterval>)> =
                enumerate_insertion_points(&region, &design, &spec, &cfg)
                    .into_iter()
                    .map(|p| (p.bottom_row, p.intervals))
                    .collect();
            let mut naive = naive_insertion_points(&region, &design, &spec, relaxed);
            canon(&mut scan);
            canon(&mut naive);
            prop_assert_eq!(
                &scan, &naive,
                "relaxed={} region={:?}", relaxed, region
            );
        }
    }

    /// The branch-and-bound best-first search returns the same insertion
    /// point (row, intervals, x, cost) as the exhaustive path, and never
    /// exactly-evaluates more combinations than the exhaustive path emits.
    #[test]
    fn pruned_search_equals_exhaustive(s in scenario()) {
        let Some((design, state, target)) = build(&s) else { return Ok(()) };
        let cell = design.cell(target);
        let window = SiteRect::new(0, 0, s.width, s.rows);
        let region = LocalRegion::extract(&design, &state, window);
        let spec = TargetSpec {
            w: cell.width(),
            h: cell.height(),
            x: s.target_pos.0,
            y: s.target_pos.1,
            rail: PowerRail::Vdd,
        };
        for (eval_mode, rail_mode) in [
            (EvalMode::Approximate, PowerRailMode::Relaxed),
            (EvalMode::Exact, PowerRailMode::Relaxed),
            (EvalMode::Approximate, PowerRailMode::Aligned),
            (EvalMode::Exact, PowerRailMode::Aligned),
        ] {
            let base = LegalizerConfig::default()
                .with_rail_mode(rail_mode)
                .with_eval_mode(eval_mode);
            let mut full_ctx = LegalizeCtx::new();
            let full = find_best_insertion_point(
                &region,
                &design,
                &spec,
                &base.clone().with_prune(false),
                &mut full_ctx,
            );
            let mut pruned_ctx = LegalizeCtx::new();
            let pruned = find_best_insertion_point(
                &region,
                &design,
                &spec,
                &base.with_prune(true),
                &mut pruned_ctx,
            );
            let (full_times, pruned_times) = (full_ctx.stats.phases, pruned_ctx.stats.phases);
            prop_assert_eq!(&pruned, &full, "{:?}, {:?}", eval_mode, rail_mode);
            prop_assert_eq!(
                pruned_times.combos_generated, full_times.combos_generated,
                "both modes must consider the same candidate set"
            );
            prop_assert!(
                pruned_times.combos_evaluated <= full_times.combos_generated,
                "pruned evaluated {} > exhaustive emitted {}",
                pruned_times.combos_evaluated, full_times.combos_generated
            );
            prop_assert_eq!(
                pruned_times.combos_pruned + pruned_times.combos_evaluated,
                pruned_times.combos_generated,
                "every generated combo is either pruned or evaluated"
            );
        }
    }

    /// The interleaved occupancy index stays equal to a linear rebuild
    /// from the authoritative `pos[]` record across arbitrary
    /// place/unplace/shift sequences (extent keys, rows and heights).
    #[test]
    fn interleaved_index_matches_pos_rebuild(s in scenario()) {
        let Some((design, mut fast, _)) = build(&s) else { return Ok(()) };
        let cells: Vec<CellId> = design.movable_cells().collect();
        let mut rng = Lcg(s.seed | 1);
        for _ in 0..24 {
            let id = cells[rng.below(cells.len() as u64) as usize];
            match rng.below(3) {
                0 => {
                    if fast.is_placed(id) {
                        fast.remove(&design, id).expect("placed");
                    }
                }
                1 => {
                    if !fast.is_placed(id) {
                        let c = design.cell(id);
                        let x = rng.below(s.width as u64) as i32;
                        let y = rng.below(s.rows as u64) as i32;
                        let pos = SitePoint::new(
                            x.min((s.width - c.width()).max(0)),
                            y.min((s.rows - c.height()).max(0)),
                        );
                        let _ = fast.place_ignoring_rails(&design, id, pos);
                    }
                }
                _ => {
                    if let Some(p) = fast.position(id) {
                        let new_x = p.x + rng.below(7) as i32 - 3;
                        let _ = fast.shift_batch(&design, &[(id, new_x)]);
                    }
                }
            }
            // Every entry's extent, bottom row and height == the linear
            // rebuild from pos[].
            prop_assert_eq!(fast.verify_index(&design), Ok(()));
        }
    }

    /// Random place / remove / shift_batch sequences over cells 1–3 rows
    /// tall, on rows that blockages split into several segments. After
    /// every step the index equals its rebuild from `pos[]` (each entry's
    /// extent, bottom row and height), and `span_is_free` equals the answer
    /// of the free gaps rebuilt from the cell lists — for zero-width spans,
    /// spans touching a cell edge or a segment end, whole gaps, and random
    /// spans inside each segment.
    #[test]
    fn span_is_free_matches_gap_rebuild(
        rows in 3..7i32,
        width in 12..40i32,
        blockages in proptest::collection::vec((0..40i32, 0..7i32, 1..4i32, 1..3i32), 0..5),
        cells in proptest::collection::vec((1..5i32, 1..4i32), 1..16),
        seed in any::<u64>(),
    ) {
        let mut b = DesignBuilder::new(rows, width);
        for &(x, y, w, h) in &blockages {
            let (x, y) = (x % width, y % rows);
            b.add_blockage(SiteRect::new(x, y, w.min(width - x), h.min(rows - y)));
        }
        let ids: Vec<CellId> = cells
            .iter()
            .enumerate()
            .map(|(i, &(w, h))| b.add_cell(format!("c{i}"), w, h.min(rows)))
            .collect();
        let Ok(design) = b.finish() else {
            return Err(TestCaseError::reject("over capacity"));
        };
        let segments = design.floorplan().segments();
        let mut state = PlacementState::new(&design);
        let mut rng = Lcg(seed | 1);
        for step in 0..48 {
            let id = ids[rng.below(ids.len() as u64) as usize];
            match (rng.below(4), state.position(id)) {
                (0, Some(_)) => {
                    state.remove(&design, id).expect("placed");
                }
                (_, None) => {
                    let at = SitePoint::new(
                        rng.below(width as u64) as i32,
                        rng.below(rows as u64) as i32,
                    );
                    let _ = state.place_ignoring_rails(&design, id, at);
                }
                (1, Some(p)) => {
                    let new_x = p.x + rng.below(7) as i32 - 3;
                    let _ = state.shift_batch(&design, &[(id, new_x)]);
                }
                _ => {
                    // Every placed cell by the same offset: a multi-cell
                    // batch that keeps each list's order.
                    let d = rng.below(5) as i32 - 2;
                    let moves: Vec<(CellId, i32)> =
                        state.iter_placed().map(|(c, p)| (c, p.x + d)).collect();
                    let _ = state.shift_batch(&design, &moves);
                }
            }
            prop_assert_eq!(state.verify_index(&design), Ok(()), "step {}", step);
            for (si, seg) in segments.iter().enumerate() {
                let seg_id = SegId::from_usize(si);
                let gaps = state.recompute_gaps(&design, seg_id);
                let (sx0, sx1) = (seg.x, seg.right());
                let mut spans: Vec<(i32, i32)> = gaps.clone();
                for k in 0..4 {
                    spans.push((sx0, sx0 + k));
                    spans.push((sx1 - k, sx1));
                }
                for &(a, e) in state.segment_extents(seg_id) {
                    for k in 0..3 {
                        spans.extend([(e, e + k), (a - k, a), (a, e), (e - 1, e + k)]);
                    }
                }
                for _ in 0..8 {
                    let x0 = sx0 + rng.below(seg.width as u64) as i32;
                    spans.push((x0, x0 + rng.below((sx1 - x0 + 1) as u64) as i32));
                }
                for (x0, x1) in spans {
                    if x0 < sx0 || x1 > sx1 || x1 < x0 {
                        continue;
                    }
                    let brute = x0 < x1 && gaps.iter().any(|&(g0, g1)| g0 <= x0 && x1 <= g1);
                    prop_assert_eq!(
                        state.span_is_free(seg_id, x0, x1),
                        brute,
                        "step {}, seg {} [{}, {}), gaps {:?}", step, si, x0, x1, &gaps
                    );
                }
            }
        }
    }

    /// Exact evaluation cost equals realized displacement for every
    /// insertion point.
    #[test]
    fn exact_cost_equals_realized_cost(s in scenario()) {
        let Some((design, state, target)) = build(&s) else { return Ok(()) };
        let cell = design.cell(target);
        let window = SiteRect::new(0, 0, s.width, s.rows);
        let region = LocalRegion::extract(&design, &state, window);
        let spec = TargetSpec {
            w: cell.width(),
            h: cell.height(),
            x: s.target_pos.0,
            y: s.target_pos.1,
            rail: PowerRail::Vdd,
        };
        let cfg = LegalizerConfig::default()
            .with_rail_mode(PowerRailMode::Relaxed)
            .with_eval_mode(EvalMode::Exact);
        let aspect = design.grid().aspect();
        for point in enumerate_insertion_points(&region, &design, &spec, &cfg) {
            let r = realize(&region, &point, &spec);
            let realized = r.cell_displacement as f64
                + f64::from((r.target_x - spec.x).abs())
                + f64::from((r.target_row - spec.y).abs()) * aspect;
            prop_assert!(
                (realized - point.eval.cost).abs() < 1e-9,
                "eval {} vs realized {} at {:?}",
                point.eval.cost, realized, point
            );
        }
    }

    /// Exact-mode MLL reaches the MILP optimum of the local problem.
    #[test]
    fn mll_exact_matches_milp_optimum(s in scenario()) {
        let Some((design, mut state, target)) = build(&s) else { return Ok(()) };
        let cfg = LegalizerConfig::default().with_rail_mode(PowerRailMode::Relaxed);
        let pos = SitePoint::new(
            s.target_pos.0.min(s.width - design.cell(target).width()).max(0),
            s.target_pos.1.min(s.rows - design.cell(target).height()).max(0),
        );
        let milp = mrl_baselines::milp_local_cost(&cfg, &design, &state, target, pos);
        let exact = cfg.with_eval_mode(EvalMode::Exact);
        let mll = mll(&design, &mut state, &exact, target, pos, &mut LegalizeCtx::new(), 0)
            .expect("target unplaced");
        match (milp, mll) {
            (Some(opt), Ok(eval)) => {
                prop_assert!(
                    (opt - eval.cost).abs() < 1e-6,
                    "milp {} vs mll-exact {}", opt, eval.cost
                );
            }
            (None, Err(_)) => {}
            (milp, mll) => {
                return Err(TestCaseError::fail(format!(
                    "feasibility mismatch: milp={milp:?}, mll={mll:?}"
                )));
            }
        }
    }

    /// Leftmost/rightmost placements bound the current position of every
    /// local cell and are themselves overlap-free in order.
    #[test]
    fn leftmost_rightmost_are_legal_bounds(s in scenario()) {
        let Some((design, state, _)) = build(&s) else { return Ok(()) };
        let region = LocalRegion::extract(
            &design,
            &state,
            SiteRect::new(0, 0, s.width, s.rows),
        );
        let cells = &region.cells;
        for i in 0..cells.len() {
            prop_assert!(cells.x_left[i] <= cells.x[i]);
            prop_assert!(cells.x_right[i] >= cells.x[i]);
        }
        for seg in region.rows.iter().flatten() {
            for pair in seg.cells.windows(2) {
                let (a, b) = (pair[0] as usize, pair[1] as usize);
                prop_assert!(cells.x_left[a] + cells.w[a] <= cells.x_left[b], "leftmost overlaps");
                prop_assert!(cells.x_right[a] + cells.w[a] <= cells.x_right[b], "rightmost overlaps");
            }
            if let (Some(&first), Some(&last)) = (seg.cells.first(), seg.cells.last()) {
                let (f, l) = (first as usize, last as usize);
                prop_assert!(cells.x_left[f] >= seg.x0);
                prop_assert!(cells.x_right[l] + cells.w[l] <= seg.x1);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Nested journal savepoints.
// ---------------------------------------------------------------------------

/// Applies one random `place` / `remove` / `shift_batch` / row move
/// (`remove` then `place_ignoring_rails`) to `state` if it succeeds on a
/// clone, and returns the cells it touched in first-touch order: a batch
/// touches its cells in list order.
fn random_mutation(
    design: &Design,
    state: &mut PlacementState,
    rng: &mut Lcg,
    s: &Scenario,
) -> Vec<CellId> {
    let cells: Vec<CellId> = design.movable_cells().collect();
    let mut picked: Vec<CellId> = Vec::new();
    for _ in 0..=rng.below(2) {
        let c = cells[rng.below(cells.len() as u64) as usize];
        if !picked.contains(&c) {
            picked.push(c);
        }
    }
    let spot = |rng: &mut Lcg, c: CellId| {
        let cell = design.cell(c);
        let x = (rng.below(s.width as u64) as i32).min((s.width - cell.width()).max(0));
        let y = (rng.below(s.rows as u64) as i32).min((s.rows - cell.height()).max(0));
        SitePoint::new(x, y)
    };
    let applies = |f: &dyn Fn(&mut PlacementState) -> bool, state: &mut PlacementState| {
        f(&mut state.clone()) && f(state)
    };
    let c = picked[0];
    match rng.below(4) {
        0 if !state.is_placed(c) => {
            let at = spot(rng, c);
            if applies(&|st| st.place_ignoring_rails(design, c, at).is_ok(), state) {
                return vec![c];
            }
        }
        1 if state.is_placed(c) && applies(&|st| st.remove(design, c).is_ok(), state) => {
            return vec![c];
        }
        2 => {
            let moves: Vec<(CellId, i32)> = picked
                .iter()
                .filter_map(|&c| {
                    state
                        .position(c)
                        .map(|p| (c, p.x + rng.below(7) as i32 - 3))
                })
                .collect();
            if !moves.is_empty() && applies(&|st| st.shift_batch(design, &moves).is_ok(), state) {
                return moves.iter().map(|&(c, _)| c).collect();
            }
        }
        3 if state.is_placed(c) => {
            let at = spot(rng, c);
            let moved = |st: &mut PlacementState| {
                st.remove(design, c).is_ok() && st.place_ignoring_rails(design, c, at).is_ok()
            };
            if applies(&moved, state) {
                return vec![c];
            }
        }
        _ => {}
    }
    Vec::new()
}

/// An open savepoint of the workload: the token, the positions when it
/// opened, and the flat first-touch log this test keeps for it.
type Level = (
    Savepoint,
    Vec<Option<SitePoint>>,
    Vec<(CellId, Option<SitePoint>)>,
);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random mutation sequences interleaved with savepoint open /
    /// rollback / release, up to depth 3: a rollback restores the
    /// snapshot taken when its savepoint opened (and the index stays
    /// consistent), and the innermost open level's entries — in
    /// particular the enclosing level's, right after an inner savepoint
    /// closes either way — equal an independently kept flat first-touch
    /// log: same cells, same order, same prior positions.
    #[test]
    fn nested_savepoints_match_a_flat_first_touch_log(s in scenario()) {
        let Some((design, mut state, _)) = build(&s) else { return Ok(()) };
        let mut rng = Lcg(s.seed | 1);
        let mut levels: Vec<Level> = Vec::new();
        for step in 0..64 {
            let roll = if levels.is_empty() { 4 } else { rng.below(8) };
            match roll {
                4 if levels.len() < 3 => {
                    let snap = state.snapshot();
                    levels.push((state.savepoint(), snap, Vec::new()));
                }
                5 | 6 if !levels.is_empty() => {
                    let (sp, snap, _) = levels.pop().expect("open level");
                    if roll == 5 {
                        state.rollback_to(&design, sp).expect("journal applies");
                        prop_assert_eq!(state.snapshot(), snap, "rollback at step {}", step);
                        prop_assert!(state.verify_index(&design).is_ok(), "index at step {}", step);
                    } else {
                        state.release(sp);
                    }
                }
                _ => {
                    let before = state.snapshot();
                    for c in random_mutation(&design, &mut state, &mut rng, &s) {
                        for (_, _, log) in levels.iter_mut() {
                            if !log.iter().any(|&(x, _)| x == c) {
                                log.push((c, before[c.index()]));
                            }
                        }
                    }
                }
            }
            prop_assert_eq!(state.open_savepoints(), levels.len());
            if let Some((sp, _, log)) = levels.last() {
                prop_assert_eq!(state.journal(sp), log.as_slice(), "step {}", step);
            }
        }
        while let Some((sp, snap, _)) = levels.pop() {
            state.rollback_to(&design, sp).expect("journal applies");
            prop_assert_eq!(state.snapshot(), snap);
            if let Some((sp, _, log)) = levels.last() {
                prop_assert_eq!(state.journal(sp), log.as_slice());
            }
        }
        prop_assert!(state.verify_index(&design).is_ok());
    }
}

// ---------------------------------------------------------------------------
// Incremental (ECO) engine properties.
// ---------------------------------------------------------------------------

use mrl_eco::{EcoConfig, EcoSession, Edit, EditBatch};

/// Structural equality of two placement states over one design: the
/// authoritative position record plus the derived CSR occupancy index.
fn eco_states_identical(design: &Design, a: &PlacementState, b: &PlacementState) -> bool {
    if a.snapshot() != b.snapshot() {
        return false;
    }
    (0..design.floorplan().segments().len()).all(|i| {
        let seg = SegId::from_usize(i);
        a.segment_cells(seg) == b.segment_cells(seg)
            && a.segment_extents(seg) == b.segment_extents(seg)
            && a.segment_rows(seg) == b.segment_rows(seg)
    })
}

/// A sparse legalized session over a wide strip: room for edits to commit,
/// and far-apart windows for the commutativity property.
fn eco_session(seed: u64, cells: usize, rows: i32, width: i32) -> EcoSession {
    let mut b = DesignBuilder::new(rows, width);
    let mut rng_state = seed | 1;
    let mut next = || {
        rng_state = rng_state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (rng_state >> 33) as f64 / (u32::MAX as f64)
    };
    for i in 0..cells {
        let w = 1 + (i % 4) as i32;
        let h = if i % 11 == 0 { 2 } else { 1 };
        let id = b.add_cell(format!("p{i}"), w, h);
        b.set_input_position(
            id,
            next() * f64::from(width - w),
            next() * f64::from(rows - h),
        );
    }
    let design = b.finish().expect("sparse design builds");
    let cfg = LegalizerConfig::default();
    let mut state = PlacementState::new(&design);
    Legalizer::new(cfg.clone())
        .legalize(&design, &mut state)
        .expect("sparse design legalizes");
    EcoSession::new(design, state, cfg, EcoConfig::default())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A batch rejected under a zero induced-displacement budget restores
    /// the session bit-exactly — positions, segment lists, extents, free
    /// gaps, and the design's cell table, widths included. A batch that
    /// does commit under that budget moved no neighbor at all. Op 3
    /// resizes one cell twice and then inserts a cell wider than the
    /// 200-site strip, so its batch always rolls back.
    #[test]
    fn eco_zero_budget_rejection_is_bit_exact(
        seed in any::<u64>(),
        cells in 20..60usize,
        op in 0..4u8,
        tx in 0..200i32,
        ty in 0..8i32,
        w in 6..14i32,
    ) {
        let mut session = eco_session(seed, cells, 8, 200);
        let design_before = session.design().clone();
        let state_before = session.state().clone();
        let cell = session
            .design()
            .movable_cells()
            .nth(cells / 2)
            .expect("movable");
        let insert = |width: i32| Edit::Insert {
            name: "prop_buf".to_string(),
            width,
            height: 1,
            rail: PowerRail::Vdd,
            x: f64::from(tx.min(199)),
            y: f64::from(ty.min(7)),
        };
        let edits = match op {
            0 => vec![insert(w)],
            1 => vec![Edit::Resize { cell, width: w }],
            2 => vec![Edit::Move { cell, x: f64::from(tx.min(199)), y: f64::from(ty.min(7)) }],
            _ => vec![
                Edit::Resize { cell, width: w },
                Edit::Resize { cell, width: w + 1 },
                insert(201),
            ],
        };
        let stats = session
            .apply_batch_with_budget(&EditBatch { id: 1, edits }, Some(0))
            .expect("valid edit");
        prop_assert!(op < 3 || !stats.applied, "a 201-site insert committed");
        if stats.applied {
            prop_assert_eq!(stats.induced_disp, 0);
        } else {
            prop_assert_eq!(session.design().num_cells(), design_before.num_cells());
            for c in (0..design_before.num_cells()).map(CellId::from_usize) {
                prop_assert_eq!(
                    session.design().cell(c).width(),
                    design_before.cell(c).width(),
                    "width of {} not restored", c
                );
            }
            prop_assert!(
                eco_states_identical(&design_before, &state_before, session.state()),
                "rejected batch did not roll back bit-exactly"
            );
        }
    }

    /// Batches whose disturbed windows are disjoint commute: applying A
    /// then B gives the same placement as B then A.
    #[test]
    fn eco_disjoint_window_batches_commute(
        seed in any::<u64>(),
        cells in 20..50usize,
        dxa in -4..5i32,
        dxb in -4..5i32,
    ) {
        // A wide strip keeps the two windows far apart: with the legalizer's
        // (30, 5) window as halo, window A stays at x <= 144 and window B at
        // x >= 260.
        let session = eco_session(seed, cells, 6, 400);
        let (a, b) = {
            let d = session.design();
            let by_x = |lo: i32, hi: i32| {
                d.movable_cells().find(|&c| {
                    let x = session.state().position(c).map_or(-1, |p| p.x);
                    (lo..hi).contains(&x)
                })
            };
            match (by_x(20, 100), by_x(300, 380)) {
                (Some(a), Some(b)) => (a, b),
                _ => return Ok(()), // clusters empty for this seed; skip
            }
        };
        let pa = session.state().position(a).expect("a placed");
        let pb = session.state().position(b).expect("b placed");
        let batch_a = EditBatch {
            id: 1,
            edits: vec![Edit::Move {
                cell: a,
                x: f64::from((pa.x + dxa).clamp(10, 110)),
                y: f64::from(pa.y),
            }],
        };
        let batch_b = EditBatch {
            id: 2,
            edits: vec![Edit::Move {
                cell: b,
                x: f64::from((pb.x + dxb).clamp(290, 390)),
                y: f64::from(pb.y),
            }],
        };
        let mut ab = EcoSession::new(
            session.design().clone(),
            session.state().clone(),
            LegalizerConfig::default(),
            session.config().clone(),
        );
        let mut ba = EcoSession::new(
            session.design().clone(),
            session.state().clone(),
            LegalizerConfig::default(),
            session.config().clone(),
        );
        let sa = ab.apply_batch(&batch_a).expect("a then b: a");
        ab.apply_batch(&batch_b).expect("a then b: b");
        let sb = ba.apply_batch(&batch_b).expect("b then a: b");
        ba.apply_batch(&batch_a).expect("b then a: a");
        // Defensive: the windows really were disjoint (x-extents).
        let (ax0, _, aw, _) = sa.window;
        let (bx0, _, bw, _) = sb.window;
        prop_assert!(
            ax0 + aw <= bx0 || bx0 + bw <= ax0,
            "windows overlap: a=[{}, {}) b=[{}, {})", ax0, ax0 + aw, bx0, bx0 + bw
        );
        prop_assert!(
            eco_states_identical(ab.design(), ab.state(), ba.state()),
            "disjoint-window batches did not commute"
        );
    }
}
