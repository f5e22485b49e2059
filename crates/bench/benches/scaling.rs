//! Complexity-claim benches: the paper states insertion-point enumeration
//! is O(|C_W|^h), realization O(|C_W|), and the full legalization scales
//! to million-cell designs in minutes. These groups measure each claim on
//! growing inputs so the reported lines expose the growth curves.

use mrl_bench::timer::Bench;
use mrl_db::{Design, DesignBuilder, PlacementState};
use mrl_geom::{PowerRail, SitePoint, SiteRect};
use mrl_legalize::{
    find_best_insertion_point, realize, LegalizeCtx, Legalizer, LegalizerConfig, LocalRegion,
    PowerRailMode, TargetSpec,
};
use mrl_synth::{generate, BenchmarkSpec, GeneratorConfig};

/// A single-row region with `n` equally spaced cells and ~30% slack.
fn row_region(n: usize) -> (Design, PlacementState) {
    let width = (n as i32 + 1) * 4;
    let mut b = DesignBuilder::new(2, width);
    let mut ids = Vec::new();
    for i in 0..n {
        ids.push(b.add_cell(format!("c{i}"), 3, 1));
    }
    let design = b.finish().expect("valid");
    let mut state = PlacementState::new(&design);
    for (i, &id) in ids.iter().enumerate() {
        state
            .place(&design, id, SitePoint::new(i as i32 * 4, 0))
            .expect("spaced placement");
    }
    (design, state)
}

fn bench_enumeration_scaling() {
    let mut ctx = LegalizeCtx::new();
    let cfg = LegalizerConfig::paper().with_rail_mode(PowerRailMode::Relaxed);
    let b = Bench::new("enumeration_scaling_cells");
    for n in [8usize, 16, 32, 64, 128] {
        let (design, state) = row_region(n);
        let bounds = design.floorplan().bounds();
        let region = LocalRegion::extract(&design, &state, bounds);
        let target = TargetSpec {
            w: 3,
            h: 1,
            x: bounds.w / 2,
            y: 0,
            rail: PowerRail::Vdd,
        };
        b.run(&format!("n{n}"), || {
            find_best_insertion_point(&region, &design, &target, &cfg, &mut ctx)
        });
    }
}

fn bench_realization_scaling() {
    let mut ctx = LegalizeCtx::new();
    // Worst case for realization: a packed chain that all shifts.
    let cfg = LegalizerConfig::paper().with_rail_mode(PowerRailMode::Relaxed);
    let bench = Bench::new("realization_scaling_cells");
    for n in [8usize, 32, 128, 512] {
        let width = (n as i32) * 3 + 16;
        let mut b = DesignBuilder::new(1, width);
        let mut ids = Vec::new();
        for i in 0..n {
            ids.push(b.add_cell(format!("c{i}"), 3, 1));
        }
        let design = b.finish().expect("valid");
        let mut state = PlacementState::new(&design);
        for (i, &id) in ids.iter().enumerate() {
            state
                .place(&design, id, SitePoint::new(8 + i as i32 * 3, 0))
                .expect("packed chain");
        }
        let bounds = design.floorplan().bounds();
        let region = LocalRegion::extract(&design, &state, bounds);
        let target = TargetSpec {
            w: 3,
            h: 1,
            x: 8,
            y: 0,
            rail: PowerRail::Vdd,
        };
        let point = find_best_insertion_point(&region, &design, &target, &cfg, &mut ctx)
            .expect("chain has room at the ends");
        // Force the position that pushes the whole chain.
        let mut forced = point;
        forced.intervals[0] = *region
            .insertion_intervals(3)
            .iter()
            .find(|iv| iv.left.is_none())
            .expect("leftmost gap");
        forced.eval.x = 8;
        bench.run(&format!("n{n}"), || realize(&region, &forced, &target));
    }
}

fn bench_end_to_end_scaling() {
    let b = Bench::new("legalize_end_to_end").slow();
    for cells in [2_000usize, 8_000, 32_000] {
        let spec = BenchmarkSpec::new(
            format!("scale_{cells}"),
            cells * 10 / 11,
            cells / 11,
            0.5,
            0.0,
        );
        let design: Design = generate(&spec, &GeneratorConfig::default()).expect("generate");
        b.run(&format!("cells{cells}"), || {
            let mut state = PlacementState::new(&design);
            Legalizer::default()
                .legalize(&design, &mut state)
                .expect("legalize")
        });
    }
}

fn bench_full_region_extraction() {
    // Extraction cost as window height grows (hits more rows/cells).
    let spec = BenchmarkSpec::new("extract_sweep", 8_000, 800, 0.6, 0.0);
    let design = generate(&spec, &GeneratorConfig::default()).expect("generate");
    let mut state = PlacementState::new(&design);
    Legalizer::default()
        .legalize(&design, &mut state)
        .expect("legalize");
    let bounds = design.floorplan().bounds();
    let b = Bench::new("extraction_by_window_rows");
    for ry in [2i32, 5, 10, 20] {
        let window = SiteRect::new(bounds.w / 2 - 30, bounds.h / 2 - ry, 63, 2 * ry + 2);
        b.run(&format!("ry{ry}"), || {
            LocalRegion::extract(&design, &state, window)
        });
    }
}

fn bench_global_placement() {
    // The GP substrate's scaling: quadratic solve + spreading iterations.
    let b = Bench::new("global_placement").slow();
    for cells in [1_000usize, 4_000] {
        let spec = BenchmarkSpec::new(format!("gp_{cells}"), cells * 10 / 11, cells / 11, 0.5, 0.0);
        let design: Design = generate(&spec, &GeneratorConfig::default()).expect("generate");
        b.run(&format!("cells{cells}"), || {
            mrl_gp::GlobalPlacer::default().place(&design)
        });
    }
}

fn main() {
    bench_enumeration_scaling();
    bench_realization_scaling();
    bench_end_to_end_scaling();
    bench_full_region_extraction();
    bench_global_placement();
}
