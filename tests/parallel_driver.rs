//! Integration tests for the parallel stripe driver and the segment
//! occupancy index.
//!
//! * The parallel driver must be a pure function of configuration and
//!   seed: running with 1, 2, and N worker threads on the same synthesized
//!   design must produce byte-identical `.pl`-style output.
//! * The occupancy index kept by `PlacementState` — each list entry's
//!   extent, bottom row and height — must agree with a from-scratch
//!   rebuild from the authoritative positions after arbitrary mutation
//!   sequences (place / MLL shifts / remove).

use std::time::Duration;

use mrl_db::{CellId, Design, DesignBuilder, PlacementState};
use mrl_legalize::{Legalizer, LegalizerConfig, PhaseTimes};
use mrl_metrics::{check_legal, RailCheck};
use mrl_synth::{generate, BenchmarkSpec, GeneratorConfig};
use proptest::prelude::*;

/// Serializes placed positions as Bookshelf `.pl`-style lines; byte
/// equality of this text is the determinism criterion.
fn pl_text(design: &Design, state: &PlacementState) -> String {
    let mut out = String::new();
    for i in 0..design.num_cells() {
        let cell = CellId::from_usize(i);
        match state.position(cell) {
            Some(p) => out.push_str(&format!(
                "{} {} {} : N\n",
                design.cell(cell).name(),
                p.x,
                p.y
            )),
            None => out.push_str(&format!("{} unplaced\n", design.cell(cell).name())),
        }
    }
    out
}

#[test]
fn parallel_driver_is_thread_count_invariant() {
    let spec = BenchmarkSpec::new("par_det", 2_500, 250, 0.6, 0.0);
    let design = generate(&spec, &GeneratorConfig::default().with_seed(7)).expect("generate");
    let legalizer = Legalizer::new(LegalizerConfig::paper().with_seed(7));
    let n = std::thread::available_parallelism()
        .map_or(4, |n| n.get())
        .max(4);
    let mut reference: Option<String> = None;
    for threads in [1usize, 2, n] {
        let mut state = PlacementState::new(&design);
        let stats = legalizer
            .legalize_parallel(&design, &mut state, threads)
            .expect("parallel legalization");
        assert_eq!(stats.placed, design.num_movable(), "threads {threads}");
        check_legal(&design, &state, RailCheck::Enforce).expect("legal result");
        let text = pl_text(&design, &state);
        match &reference {
            None => reference = Some(text),
            Some(want) => assert_eq!(
                want, &text,
                ".pl output differs between 1 and {threads} threads"
            ),
        }
    }
}

/// The whole occupancy index vs the slow rebuild from `pos[]`.
fn assert_index_consistent(design: &Design, state: &PlacementState, context: &str) {
    if let Err(e) = state.verify_index(design) {
        panic!("occupancy index diverged {context}: {e}");
    }
}

/// The parallel driver's diagnostics — not just its placement — must be a
/// pure function of the design and seed: phase call counts, combo counters,
/// and failure tallies may not depend on how the stripes were scheduled
/// across workers. (Wall-clock durations legitimately differ, so only the
/// count fields are compared.)
#[test]
fn parallel_driver_counters_are_thread_count_invariant() {
    let spec = BenchmarkSpec::new("par_counters", 2_500, 250, 0.6, 0.0);
    let design = generate(&spec, &GeneratorConfig::default().with_seed(11)).expect("generate");
    let legalizer = Legalizer::new(LegalizerConfig::paper().with_seed(11));
    let mut reference: Option<(Vec<u64>, _)> = None;
    for threads in [1usize, 2, 4] {
        let mut state = PlacementState::new(&design);
        let stats = legalizer
            .legalize_parallel(&design, &mut state, threads)
            .expect("parallel legalization");
        let counters = vec![
            stats.phases.extract_calls,
            stats.phases.enumerate_calls,
            stats.phases.evaluate_calls,
            stats.phases.realize_calls,
            stats.phases.retry_rounds,
            stats.phases.combos_generated,
            stats.phases.combos_pruned,
            stats.phases.combos_evaluated,
            stats.placed as u64,
            stats.direct as u64,
            stats.via_mll as u64,
            stats.mll_calls as u64,
        ];
        match &reference {
            None => reference = Some((counters, stats.fail_counts)),
            Some((want_counters, want_fails)) => {
                assert_eq!(
                    want_counters, &counters,
                    "phase/combo counters differ between 1 and {threads} threads"
                );
                assert_eq!(
                    want_fails, &stats.fail_counts,
                    "failure tallies differ between 1 and {threads} threads"
                );
            }
        }
    }
}

/// Expands a seed into an arbitrary `PhaseTimes` (splitmix64 field fill)
/// so proptest can explore the merge algebra without running a
/// legalization. `u32`-sized material keeps the sums far from overflow.
fn phase_times_from_seed(seed: u64) -> PhaseTimes {
    let mut s = seed;
    let mut next = move || {
        s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut n = move || next() as u32 as u64;
    PhaseTimes {
        extract: Duration::from_nanos(n()),
        enumerate: Duration::from_nanos(n()),
        evaluate: Duration::from_nanos(n()),
        realize: Duration::from_nanos(n()),
        retry: Duration::from_nanos(n()),
        extract_calls: n(),
        enumerate_calls: n(),
        evaluate_calls: n(),
        realize_calls: n(),
        retry_rounds: n(),
        combos_generated: n(),
        combos_pruned: n(),
        combos_evaluated: n(),
        ..PhaseTimes::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `PhaseTimes::merge` must be associative and commutative — this is
    /// what lets the parallel driver fold per-stripe accumulators in wave
    /// order and still match a sequential run's totals.
    #[test]
    fn phase_times_merge_is_associative_and_commutative(
        sa in any::<u64>(),
        sb in any::<u64>(),
        sc in any::<u64>(),
    ) {
        let (a, b, c) = (
            phase_times_from_seed(sa),
            phase_times_from_seed(sb),
            phase_times_from_seed(sc),
        );
        // Commutativity: a ⊕ b == b ⊕ a.
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        prop_assert_eq!(ab, ba);

        // Associativity: (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c).
        let mut left = ab;
        left.merge(&c);
        let mut bc = b;
        bc.merge(&c);
        let mut right = a;
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Legalization (place + shift_batch churn) followed by removals keeps
    /// the occupancy index identical to the slow rescan.
    #[test]
    fn occupancy_index_matches_slow_rescan(
        rows in 2..5i32,
        width in 20..60i32,
        cells in proptest::collection::vec((1..5i32, 1..3i32), 1..24),
        seed in any::<u64>(),
    ) {
        let mut b = DesignBuilder::new(rows, width);
        let mut ids = Vec::new();
        for (i, &(w, h)) in cells.iter().enumerate() {
            let c = b.add_cell(format!("c{i}"), w, h.min(rows));
            // Everyone wants the same neighbourhood: forces MLL shifts.
            let x = f64::from(width) / 2.0 + (i % 5) as f64 - 2.0;
            let y = f64::from((i as i32) % rows);
            b.set_input_position(c, x, y);
            ids.push(c);
        }
        // Over-full inputs are rejected by the builder's capacity check.
        let Ok(design) = b.finish() else {
            return Err(TestCaseError::reject("over capacity"));
        };

        let mut state = PlacementState::new(&design);
        let cfg = LegalizerConfig::default().with_window(8, 2).with_seed(seed);
        if Legalizer::new(cfg).legalize(&design, &mut state).is_err() {
            // Unplaceable dense corner: whatever was placed must still
            // leave the index consistent.
            assert_index_consistent(&design, &state, "after failed legalization");
            return Ok(());
        }
        assert_index_consistent(&design, &state, "after legalization");

        // Remove every other cell and re-check.
        for &c in ids.iter().step_by(2) {
            if state.is_placed(c) {
                state.remove(&design, c).expect("remove placed cell");
            }
        }
        assert_index_consistent(&design, &state, "after removals");
    }
}
