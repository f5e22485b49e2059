//! Differential stream fuzzing for the incremental ECO engine.
//!
//! The eco regime reuses the witness trick — the base design is grown from
//! a known-legal placement — and layers a generated *edit stream* on top.
//! Four oracles run per case:
//!
//! * **incremental legality** — after every committed batch the session's
//!   placement must pass [`mrl_metrics::check_legal`] (tombstoned cells
//!   excepted) and its CSR occupancy index must verify;
//! * **thread bit-identity** — the same stream applied over base
//!   legalizations produced with 1/2/4 threads must end bit-identical,
//!   composing the parallel driver's determinism guarantee with the
//!   engine's;
//! * **rollback bit-exactness** — a probe session replays the stream under
//!   a zero displacement budget; every batch it rejects must leave design
//!   and placement byte-identical to the pre-batch snapshot;
//! * **full re-legalization** — the committed end state proves the
//!   post-edit design feasible, so legalizing that design from scratch
//!   must succeed and check legal.
//!
//! Streams are generated *drop-safe*: edits reference only base movable
//! cells (never session-assigned insert ids) and never touch a cell after
//! its delete was emitted, so removing any subset of batches — or any
//! subset of edits within a batch — yields a stream that is still valid.
//! That is what lets [`shrink_stream`] run plain ddmin over batches with
//! the scenario held fixed.

use crate::matrix::{self, Discrepancy, DiscrepancyKind, MatrixOptions};
use crate::scenario::{Scenario, ScenarioCell};
use crate::shrink::ShrinkStats;
use mrl_db::{CellId, Design, PlacementState, SegId};
use mrl_eco::{EcoConfig, EcoSession, Edit, EditBatch};
use mrl_legalize::Legalizer;
use mrl_metrics::{check_legal, RailCheck};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Shape of one generated edit stream.
#[derive(Clone, Copy, Debug)]
pub struct EcoStreamConfig {
    /// Stream seed (derived from the case seed; replays bit-identically).
    pub seed: u64,
    /// Number of batches.
    pub batches: usize,
    /// Upper bound on edits per batch.
    pub max_edits: usize,
}

impl EcoStreamConfig {
    /// Defaults around an explicit seed: 12 batches of up to 3 edits.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            batches: 12,
            max_edits: 3,
        }
    }
}

/// Generates a drop-safe edit stream against the design's movable cells.
///
/// Move/resize/delete edits reference base movable ids only; once a
/// delete is emitted the cell is never referenced again, and inserted
/// cells are never referenced at all. Roughly half the edits are local
/// moves, with the rest split between resizes, inserts, and a capped
/// number of deletes.
pub fn generate_stream(design: &Design, cfg: &EcoStreamConfig) -> Vec<EditBatch> {
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut alive: Vec<CellId> = design.movable_cells().collect();
    let bounds = design.floorplan().bounds();
    let rows = design.floorplan().num_rows();
    let max_deletes = alive.len() / 5;
    let mut deletes = 0usize;
    let mut stream = Vec::with_capacity(cfg.batches);
    for b in 0..cfg.batches {
        let n = rng.gen_range(1..=cfg.max_edits.max(1));
        let mut edits = Vec::with_capacity(n);
        for k in 0..n {
            if alive.is_empty() {
                break;
            }
            let pick = rng.gen_range(0..alive.len());
            let cell = alive[pick];
            let (ix, iy) = design.input_position(cell);
            let op = rng.gen_range(0u8..10);
            edits.push(match op {
                0..=4 => Edit::Move {
                    cell,
                    x: (ix + rng.gen_range(-12.0..=12.0))
                        .clamp(f64::from(bounds.x), f64::from(bounds.x + bounds.w - 1)),
                    y: (iy + rng.gen_range(-3.0..=3.0)).clamp(0.0, f64::from(rows - 1)),
                },
                5..=6 => Edit::Resize {
                    cell,
                    width: (design.cell(cell).width() + rng.gen_range(-1..=2)).max(1),
                },
                7..=8 => Edit::Insert {
                    name: format!("eco_{b}_{k}"),
                    width: rng.gen_range(1..=4),
                    height: if rng.gen_bool(0.25) { 2 } else { 1 },
                    rail: if rng.gen_bool(0.5) {
                        mrl_geom::PowerRail::Vdd
                    } else {
                        mrl_geom::PowerRail::Vss
                    },
                    x: rng.gen_range(f64::from(bounds.x)..=f64::from(bounds.x + bounds.w - 1)),
                    y: rng.gen_range(0.0..=f64::from(rows - 1)),
                },
                _ if deletes < max_deletes && alive.len() > 4 => {
                    alive.swap_remove(pick);
                    deletes += 1;
                    Edit::Delete { cell }
                }
                _ => Edit::Move { cell, x: ix, y: iy },
            });
        }
        if !edits.is_empty() {
            stream.push(EditBatch {
                id: b as u64,
                edits,
            });
        }
    }
    stream
}

/// Full structural equality of two placement states: the authoritative
/// position record plus the derived CSR occupancy index.
fn states_identical(design: &Design, a: &PlacementState, b: &PlacementState) -> bool {
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

/// Independent legality of a session's placement, tolerating tombstoned
/// cells being unplaced, plus its occupancy index. `None` = clean.
fn session_illegal_detail(session: &EcoSession) -> Option<String> {
    if let Err(violations) = session.check_legal() {
        let found: Vec<String> = violations.iter().map(|v| format!("{v:?}")).collect();
        return Some(found.join("; "));
    }
    if let Err(e) = session.state().verify_index(session.design()) {
        return Some(format!("occupancy index inconsistent: {e}"));
    }
    None
}

/// The scenario after applying the committed batches structurally: moves
/// update inputs, resizes update widths, inserts append cells, deletes
/// remove them. Witness positions are dropped — feasibility of the result
/// is proven by the session's own end state, not the original witness.
fn post_edit_scenario(scenario: &Scenario, stream: &[EditBatch], applied: &[bool]) -> Scenario {
    let mut post = scenario.clone();
    post.name = format!("{}_post", scenario.name);
    post.bound = 0.0;
    for c in &mut post.cells {
        c.legal = None;
    }
    let n_macros = scenario.macros.len();
    let base = scenario.cells.len();
    let idx = |cell: CellId| cell.index().checked_sub(n_macros).filter(|i| *i < base);
    let mut doomed = Vec::new();
    for (batch, ok) in stream.iter().zip(applied) {
        if !ok {
            continue;
        }
        for edit in &batch.edits {
            match edit {
                Edit::Move { cell, x, y } => {
                    if let Some(i) = idx(*cell) {
                        post.cells[i].input = (*x, *y);
                    }
                }
                Edit::Resize { cell, width } => {
                    if let Some(i) = idx(*cell) {
                        post.cells[i].w = *width;
                    }
                }
                Edit::Insert {
                    name,
                    width,
                    height,
                    rail,
                    x,
                    y,
                } => post.cells.push(ScenarioCell {
                    name: name.clone(),
                    w: *width,
                    h: *height,
                    rail: *rail,
                    legal: None,
                    input: (*x, *y),
                }),
                Edit::Delete { cell } => {
                    if let Some(i) = idx(*cell) {
                        doomed.push(i);
                    }
                }
            }
        }
    }
    doomed.sort_unstable();
    doomed.dedup();
    for i in doomed.into_iter().rev() {
        post.cells.remove(i);
    }
    post
}

/// Runs the four eco oracles over one scenario + stream; returns every
/// discrepancy found (empty = clean).
pub fn run_eco_case(
    scenario: &Scenario,
    stream: &[EditBatch],
    opts: &MatrixOptions,
) -> Vec<Discrepancy> {
    let design = match scenario.build() {
        Ok(d) => d,
        Err(e) => {
            return vec![Discrepancy {
                kind: DiscrepancyKind::BuildFailed,
                detail: format!("scenario failed to build: {e}"),
            }]
        }
    };
    let cfg = matrix::base_config(opts);
    let mut base_state = PlacementState::new(&design);
    if let Err(e) = Legalizer::new(cfg.clone()).legalize(&design, &mut base_state) {
        return vec![Discrepancy {
            kind: DiscrepancyKind::LegalizeFailed,
            detail: format!("base legalization failed: {e}"),
        }];
    }
    let mut out = Vec::new();

    // Oracle 3 (rollback bit-exactness): replay the stream on a probe
    // session under a zero displacement budget. Any edit that would move a
    // neighbor is rejected, and every rejection must restore the session
    // byte-identically — positions, segment lists, extents, and rows.
    {
        let mut probe = EcoSession::new(
            design.clone(),
            base_state.clone(),
            cfg.clone(),
            EcoConfig::default(),
        );
        for batch in stream {
            let before_cells = probe.design().num_cells();
            let before = probe.state().clone();
            match probe.apply_batch_with_budget(batch, Some(0)) {
                Err(e) => {
                    out.push(Discrepancy {
                        kind: DiscrepancyKind::EcoIllegal,
                        detail: format!(
                            "probe: generator-valid batch {} rejected as invalid: {e}",
                            batch.id
                        ),
                    });
                    break;
                }
                Ok(stats) if !stats.applied => {
                    if probe.design().num_cells() != before_cells
                        || !states_identical(probe.design(), &before, probe.state())
                    {
                        out.push(Discrepancy {
                            kind: DiscrepancyKind::EcoRollbackDivergence,
                            detail: format!(
                                "batch {} rejected ({}) but state diverged from \
                                 pre-batch snapshot",
                                batch.id,
                                stats.reject.as_deref().unwrap_or("?"),
                            ),
                        });
                        break;
                    }
                }
                Ok(_) => {}
            }
        }
    }

    // Oracles 1 + 2: one session per base-legalization thread count runs
    // the identical stream; the 1-thread session is also legality-checked
    // after every batch.
    let mut sessions = vec![(
        1usize,
        EcoSession::new(
            design.clone(),
            base_state.clone(),
            cfg.clone(),
            EcoConfig::default(),
        ),
    )];
    for &t in opts.threads.iter().filter(|&&t| t > 1) {
        let mut st = PlacementState::new(&design);
        match Legalizer::new(cfg.clone()).legalize_parallel(&design, &mut st, t) {
            Err(e) => out.push(Discrepancy {
                kind: DiscrepancyKind::EcoThreadDivergence,
                detail: format!("{t}-thread base legalization failed: {e}"),
            }),
            Ok(_) => sessions.push((
                t,
                EcoSession::new(design.clone(), st, cfg.clone(), EcoConfig::default()),
            )),
        }
    }
    let mut applied = Vec::with_capacity(stream.len());
    'stream: for batch in stream {
        let mut ref_applied = false;
        for (t, session) in &mut sessions {
            match session.apply_batch(batch) {
                Err(e) => {
                    out.push(Discrepancy {
                        kind: DiscrepancyKind::EcoIllegal,
                        detail: format!(
                            "generator-valid batch {} rejected as invalid \
                             ({t}-thread base): {e}",
                            batch.id
                        ),
                    });
                    break 'stream;
                }
                Ok(stats) if *t == 1 => ref_applied = stats.applied,
                Ok(stats) => {
                    if stats.applied != ref_applied {
                        out.push(Discrepancy {
                            kind: DiscrepancyKind::EcoThreadDivergence,
                            detail: format!(
                                "batch {}: applied={} on 1-thread base but {} on \
                                 {t}-thread base",
                                batch.id, ref_applied, stats.applied
                            ),
                        });
                        break 'stream;
                    }
                }
            }
        }
        if let Some(detail) = session_illegal_detail(&sessions[0].1) {
            out.push(Discrepancy {
                kind: DiscrepancyKind::EcoIllegal,
                detail: format!("after batch {}: {detail}", batch.id),
            });
            break;
        }
        applied.push(ref_applied);
    }
    if applied.len() == stream.len() {
        let ref_snap = sessions[0].1.state().snapshot();
        for (t, session) in &sessions[1..] {
            if session.state().snapshot() != ref_snap {
                out.push(Discrepancy {
                    kind: DiscrepancyKind::EcoThreadDivergence,
                    detail: format!(
                        "final placement differs between 1-thread and {t}-thread bases"
                    ),
                });
            }
        }
    }

    // Oracle 4 (full re-legalization): only meaningful when the stream ran
    // to completion — the committed end state is the feasibility witness.
    if out.is_empty() && applied.len() == stream.len() {
        let post = post_edit_scenario(scenario, stream, &applied);
        match post.build() {
            Err(e) => out.push(Discrepancy {
                kind: DiscrepancyKind::EcoFullRelegalizeFailed,
                detail: format!("post-edit scenario failed to build: {e}"),
            }),
            Ok(post_design) => {
                let mut st = PlacementState::new(&post_design);
                match Legalizer::new(cfg).legalize(&post_design, &mut st) {
                    Err(e) => out.push(Discrepancy {
                        kind: DiscrepancyKind::EcoFullRelegalizeFailed,
                        detail: format!(
                            "session legalized all edits, but from-scratch \
                             legalization failed: {e}"
                        ),
                    }),
                    Ok(_) => {
                        if let Err(report) = check_legal(&post_design, &st, RailCheck::Enforce) {
                            out.push(Discrepancy {
                                kind: DiscrepancyKind::EcoFullRelegalizeFailed,
                                detail: format!("from-scratch result illegal: {report}"),
                            });
                        }
                    }
                }
            }
        }
    }
    out
}

/// The stream shrinker's oracle: does the same discrepancy kind survive?
pub fn reproduces_stream(
    scenario: &Scenario,
    stream: &[EditBatch],
    opts: &MatrixOptions,
    kind: DiscrepancyKind,
) -> bool {
    run_eco_case(scenario, stream, opts)
        .iter()
        .any(|d| d.kind == kind)
}

/// Reduces the edit stream to a (locally) minimal one still exhibiting
/// `kind`, with the scenario held fixed. ddmin over batches, then a sweep
/// dropping individual edits — both safe because generated streams are
/// drop-safe by construction. The [`ShrinkStats`] counters report batches
/// (not cells) before/after.
pub fn shrink_stream(
    scenario: &Scenario,
    stream: &[EditBatch],
    opts: &MatrixOptions,
    kind: DiscrepancyKind,
    budget: u32,
) -> (Vec<EditBatch>, ShrinkStats) {
    let mut stats = ShrinkStats {
        cells_before: stream.len(),
        ..ShrinkStats::default()
    };
    let mut calls = 0u32;
    let check = |cand: &[EditBatch], calls: &mut u32| -> Option<bool> {
        if *calls >= budget {
            return None;
        }
        *calls += 1;
        Some(reproduces_stream(scenario, cand, opts, kind))
    };
    let mut s: Vec<EditBatch> = stream.to_vec();
    if check(&s, &mut calls) != Some(true) {
        stats.oracle_calls = calls;
        stats.cells_after = s.len();
        return (s, stats);
    }
    // ddmin over batches.
    let mut chunk = (s.len() / 2).max(1);
    'outer: loop {
        let mut start = 0;
        while start < s.len() {
            let end = (start + chunk).min(s.len());
            let mut cand = s.clone();
            cand.drain(start..end);
            match check(&cand, &mut calls) {
                None => break 'outer,
                Some(true) => s = cand,
                Some(false) => start = end,
            }
        }
        if chunk == 1 {
            break;
        }
        chunk = (chunk / 2).max(1);
    }
    // Drop individual edits inside the surviving batches.
    'edits: for b in 0..s.len() {
        let mut e = 0;
        while e < s[b].edits.len() {
            if s[b].edits.len() == 1 {
                break; // batch-level ddmin already tried dropping it whole
            }
            let mut cand = s.clone();
            cand[b].edits.remove(e);
            match check(&cand, &mut calls) {
                None => break 'edits,
                Some(true) => s = cand,
                Some(false) => e += 1,
            }
        }
    }
    stats.oracle_calls = calls;
    stats.cells_after = s.len();
    (s, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrl_synth::{generate_witness, WitnessConfig};

    fn sample(seed: u64, cells: usize, utilization: f64) -> Scenario {
        let w = generate_witness(
            &WitnessConfig::new(seed)
                .with_cells(cells)
                .with_utilization(utilization),
        )
        .unwrap();
        Scenario::from_witness(&w)
    }

    #[test]
    fn generated_streams_are_deterministic_and_drop_safe() {
        let s = sample(21, 80, 0.6);
        let design = s.build().unwrap();
        let cfg = EcoStreamConfig::new(21);
        let a = generate_stream(&design, &cfg);
        let b = generate_stream(&design, &cfg);
        assert_eq!(a, b, "stream generation must be deterministic");
        assert!(!a.is_empty());
        // Drop-safety: no edit references a cell after its delete, and no
        // edit references an inserted cell (ids past the base design).
        let n = design.num_cells();
        let mut dead = std::collections::HashSet::new();
        for batch in &a {
            for edit in &batch.edits {
                if let Some(c) = edit.cell() {
                    assert!(c.index() < n, "edit references an inserted cell");
                    assert!(!dead.contains(&c), "edit references a deleted cell");
                }
                if let Edit::Delete { cell } = edit {
                    dead.insert(*cell);
                }
            }
        }
    }

    #[test]
    fn clean_case_produces_no_discrepancies() {
        let s = sample(22, 70, 0.55);
        let design = s.build().unwrap();
        let stream = generate_stream(&design, &EcoStreamConfig::new(22));
        let mut opts = MatrixOptions::new(22);
        opts.baselines = false;
        let ds = run_eco_case(&s, &stream, &opts);
        assert!(ds.is_empty(), "unexpected: {ds:?}");
    }

    #[test]
    fn shrink_returns_nonreproducing_stream_unchanged() {
        let s = sample(23, 40, 0.5);
        let design = s.build().unwrap();
        let stream = generate_stream(&design, &EcoStreamConfig::new(23));
        let opts = MatrixOptions::new(23);
        let (same, stats) = shrink_stream(&s, &stream, &opts, DiscrepancyKind::EcoIllegal, 50);
        assert_eq!(same.len(), stream.len());
        assert_eq!(stats.oracle_calls, 1);
    }

    #[test]
    fn shrink_reduces_a_stream_with_an_invalid_reference() {
        // Hand-inject an out-of-range cell reference mid-stream: the engine
        // must flag it (EcoIllegal via the probe) and ddmin must cut the
        // stream down to just the poisoned batch.
        let s = sample(24, 60, 0.55);
        let design = s.build().unwrap();
        let mut stream = generate_stream(&design, &EcoStreamConfig::new(24));
        assert!(stream.len() >= 4);
        let bogus = CellId::from_usize(design.num_cells() + 99);
        let mid = stream.len() / 2;
        stream[mid].edits = vec![
            Edit::Delete { cell: bogus },
            Edit::Move {
                cell: design.movable_cells().next().unwrap(),
                x: 1.0,
                y: 0.0,
            },
        ];
        let mut opts = MatrixOptions::new(24);
        opts.baselines = false;
        assert!(reproduces_stream(
            &s,
            &stream,
            &opts,
            DiscrepancyKind::EcoIllegal
        ));
        let (small, stats) = shrink_stream(&s, &stream, &opts, DiscrepancyKind::EcoIllegal, 200);
        assert_eq!(
            small.len(),
            1,
            "expected 1 batch, got {} ({stats:?})",
            small.len()
        );
        assert_eq!(
            small[0].edits.len(),
            1,
            "edit sweep should drop the valid move"
        );
        assert!(reproduces_stream(
            &s,
            &small,
            &opts,
            DiscrepancyKind::EcoIllegal
        ));
    }

    #[test]
    fn post_edit_scenario_tracks_structural_edits() {
        let s = sample(25, 30, 0.5);
        let design = s.build().unwrap();
        let movable: Vec<CellId> = design.movable_cells().collect();
        let stream = vec![
            EditBatch {
                id: 0,
                edits: vec![
                    Edit::Resize {
                        cell: movable[0],
                        width: s.cells[0].w + 1,
                    },
                    Edit::Insert {
                        name: "post_buf".into(),
                        width: 2,
                        height: 1,
                        rail: mrl_geom::PowerRail::Vdd,
                        x: 5.0,
                        y: 1.0,
                    },
                ],
            },
            EditBatch {
                id: 1,
                edits: vec![Edit::Delete { cell: movable[1] }],
            },
            EditBatch {
                id: 2,
                edits: vec![Edit::Move {
                    cell: movable[2],
                    x: 9.0,
                    y: 0.0,
                }],
            },
        ];
        // Batch 1 (the delete) marked rejected: its edit must not apply.
        let post = post_edit_scenario(&s, &stream, &[true, false, true]);
        assert_eq!(post.cells.len(), s.cells.len() + 1);
        assert_eq!(post.cells[0].w, s.cells[0].w + 1);
        assert_eq!(post.cells[2].input, (9.0, 0.0));
        assert_eq!(post.cells.last().unwrap().name, "post_buf");
        assert!(post.cells.iter().all(|c| c.legal.is_none()));
        let applied_all = post_edit_scenario(&s, &stream, &[true, true, true]);
        assert_eq!(applied_all.cells.len(), s.cells.len());
        assert!(applied_all.cells.iter().all(|c| c.name != s.cells[1].name));
    }
}
