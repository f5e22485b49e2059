//! Property tests for the tier-1 ripple escalation (ISSUE 8 satellite):
//! an accepted chain must leave the design legal and within its
//! displacement budget; a rejected chain must leave the placement state
//! observably identical to the pre-attempt state (the rollback oracle —
//! compared against a full clone taken before the attempt).

use mrl_db::{CellId, Design, PlacementState, SegId};
use mrl_geom::SitePoint;
use mrl_legalize::{EscalationConfig, LegalizeCtx, Legalizer, LegalizerConfig};
use mrl_metrics::{check_legal, RailCheck};
use mrl_synth::{generate_witness, WitnessConfig};
use proptest::prelude::*;

/// Every externally observable facet of a `PlacementState`: per-cell
/// positions plus the per-segment ordered cell lists with their extents
/// and rows (free gaps are a function of these). Two states with equal
/// snapshots are interchangeable for every query the legalizer can make.
type SegSnapshot = (Vec<CellId>, Vec<(i32, i32)>, Vec<(i32, i32)>);

#[derive(Debug, PartialEq, Eq)]
struct Snapshot {
    positions: Vec<Option<SitePoint>>,
    segments: Vec<SegSnapshot>,
}

fn snapshot(design: &Design, state: &PlacementState) -> Snapshot {
    let num_segs = design.floorplan().segments().len();
    Snapshot {
        positions: (0..design.num_cells())
            .map(|i| state.position(CellId::from_usize(i)))
            .collect(),
        segments: (0..num_segs)
            .map(|i| {
                let seg = SegId::from_usize(i);
                (
                    state.segment_cells(seg).to_vec(),
                    state.segment_extents(seg).to_vec(),
                    state.segment_rows(seg).to_vec(),
                )
            })
            .collect(),
    }
}

/// Builds a dense witness design with every cell placed at its witness
/// position except the target (the largest-area cell, most likely to need
/// a chain), which is left unplaced. To force genuine ripple chains, a
/// squatter cell is relocated into the target's vacated slot when one
/// fits there legally — the target's natural landing is then occupied and
/// only displacing the squatter (or its neighbours) can free it.
fn dense_case(seed: u32, cells: usize) -> (Design, PlacementState, CellId) {
    let wcfg = WitnessConfig::new(u64::from(seed))
        .with_cells(cells)
        .with_utilization(0.9)
        .with_shift(4.0, 1.5);
    let witness = generate_witness(&wcfg).expect("witness generation");
    let design = witness.design;
    let (target, hole) = witness
        .legal
        .iter()
        .copied()
        .max_by_key(|&(c, _)| (design.cell(c).area(), c.index()))
        .expect("non-empty witness");
    let mut state = PlacementState::new(&design);
    for &(c, p) in &witness.legal {
        if c != target {
            state.place(&design, c, p).expect("witness is legal");
        }
    }
    for &(c, _) in &witness.legal {
        if c == target {
            continue;
        }
        let old = state.remove(&design, c).expect("cell was placed");
        if state.place(&design, c, hole).is_ok() {
            break;
        }
        state.place(&design, c, old).expect("restoring is legal");
    }
    (design, state, target)
}

fn ripple_only(max_disp: i64) -> LegalizerConfig {
    LegalizerConfig::paper().with_escalation(
        EscalationConfig::default()
            .with_tiers(true, false, false)
            .with_ripple_max_disp(max_disp),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// An accepted chain leaves the design independently legal and keeps
    /// the displacement it inflicted on other cells within the configured
    /// budget; a rejected chain restores the exact pre-attempt state.
    #[test]
    fn ripple_chain_is_legal_bounded_and_transactional(
        seed in 0u32..500,
        cells in 16usize..48,
        budget_idx in 0usize..4,
    ) {
        let max_disp = [0i64, 4, 12, 70][budget_idx];
        let (design, mut state, target) = dense_case(seed, cells);
        let before = snapshot(&design, &state);
        let before_pos: Vec<Option<SitePoint>> = before.positions.clone();
        let lg = Legalizer::new(ripple_only(max_disp));
        let mut ctx = LegalizeCtx::new();
        let placed = lg
            .escalate_cell(&design, &mut state, target, &mut ctx, 1)
            .expect("no db errors");
        let stats = ctx.stats;
        prop_assert_eq!(state.open_savepoints(), 0);
        prop_assert_eq!(placed, state.is_placed(target));
        if placed {
            // Legality by the independent checker (shares no bookkeeping
            // with the legalizer).
            let report = check_legal(&design, &state, RailCheck::Enforce);
            prop_assert!(report.is_ok(), "illegal after accepted chain: {:?}", report.err());
            // Displacement budget over every *other* cell.
            let mut induced = 0i64;
            for (i, was) in before_pos.iter().enumerate() {
                let c = CellId::from_usize(i);
                if c == target {
                    continue;
                }
                if let (Some(was), Some(now)) = (was, state.position(c)) {
                    induced +=
                        i64::from((now.x - was.x).abs()) + i64::from((now.y - was.y).abs());
                }
                // Ripple never unplaces a previously placed cell.
                prop_assert_eq!(was.is_some(), state.position(c).is_some());
            }
            prop_assert!(
                induced <= max_disp,
                "chain displaced {} > budget {}",
                induced,
                max_disp
            );
            prop_assert_eq!(stats.escalation.ripple_placed, 1);
        } else {
            // Rollback oracle: the state must be observably identical to
            // the clone taken before the attempt.
            let after = snapshot(&design, &state);
            prop_assert_eq!(&before, &after);
            prop_assert_eq!(
                stats.escalation.ripple_chains,
                stats.escalation.ripple_rolled_back
            );
        }
    }

    /// With a zero displacement budget a chain can only commit if it
    /// displaced nothing; on these packed cases that never happens, so
    /// every attempt must roll back perfectly.
    #[test]
    fn zero_budget_always_rolls_back_cleanly(seed in 0u32..200, cells in 16usize..40) {
        let (design, mut state, target) = dense_case(seed, cells);
        let before = snapshot(&design, &state);
        let lg = Legalizer::new(ripple_only(0));
        let placed = lg
            .escalate_cell(&design, &mut state, target, &mut LegalizeCtx::new(), 1)
            .expect("no db errors");
        if !placed {
            let after = snapshot(&design, &state);
            prop_assert_eq!(&before, &after);
        }
    }
}
