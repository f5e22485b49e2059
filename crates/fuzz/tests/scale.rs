//! Invariant checks at bench scale (64 000 cells): the scaling path
//! (subrow spatial index, SoA extraction kernel, two-wave stripe driver)
//! cross-validated on a design three orders of magnitude larger than the
//! shrinker-sized scenarios of the seed-0 campaign.
//!
//! The full matrix's "parallel equals sequential" check only holds on
//! floorplans narrower than one stripe (every campaign scenario): with
//! many stripes the drivers visit cells in different orders and may settle
//! different, equally legal placements. The invariants that do hold at any
//! scale are checked here directly:
//!
//! * **legality** — both drivers' outputs pass the independent checker;
//! * **index consistency** — after both drivers, the occupancy index (gap
//!   lists and interleaved extent keys) equals a linear rebuild from the
//!   authoritative positions (`PlacementState::verify_index`);
//! * **thread invariance** — the stripe driver is bit-identical across
//!   1, 2, and 4 worker threads.
//!
//! Ignored by default — this is seconds of release-mode work — and run
//! explicitly by CI's fuzz-smoke job:
//!
//! ```text
//! cargo test --release -p mrl-fuzz --test scale -- --ignored
//! ```

use mrl_db::{CellId, PlacementState};
use mrl_geom::SitePoint;
use mrl_legalize::{Legalizer, LegalizerConfig};
use mrl_metrics::{check_legal, RailCheck};
use mrl_synth::{generate, BenchmarkSpec, GeneratorConfig};

fn positions(state: &PlacementState) -> Vec<(CellId, SitePoint)> {
    let mut v: Vec<_> = state.iter_placed().collect();
    v.sort_by_key(|&(id, _)| id);
    v
}

#[test]
#[ignore = "bench-scale case (seconds in release mode); CI runs it explicitly"]
fn invariants_hold_at_64k() {
    let cells = 64_000usize;
    let spec = BenchmarkSpec::new("fuzz_scale_64k", cells - cells / 11, cells / 11, 0.5, 0.0);
    let design = generate(&spec, &GeneratorConfig::default().with_seed(7)).expect("generate");
    let legalizer = Legalizer::new(LegalizerConfig::paper().with_seed(7));

    let run_par = |threads: usize| {
        let mut state = PlacementState::new(&design);
        legalizer
            .legalize_parallel(&design, &mut state, threads)
            .expect("parallel legalization");
        state
    };

    // Legality, via the checker that shares no code with the legalizer,
    // and the incremental index against its linear rebuild.
    let mut seq = PlacementState::new(&design);
    legalizer
        .legalize(&design, &mut seq)
        .expect("sequential legalization");
    check_legal(&design, &seq, RailCheck::Enforce).expect("sequential output is legal");
    seq.verify_index(&design)
        .expect("sequential index matches its rebuild");
    let par = run_par(1);
    check_legal(&design, &par, RailCheck::Enforce).expect("parallel output is legal");
    par.verify_index(&design)
        .expect("parallel index matches its rebuild");

    // Thread invariance: which worker runs which stripe of a wave does not
    // change the placement.
    let p1 = positions(&par);
    for threads in [2usize, 4] {
        assert_eq!(
            p1,
            positions(&run_par(threads)),
            "parallel placement differs at {threads} threads"
        );
    }
}
