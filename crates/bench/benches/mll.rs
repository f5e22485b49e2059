//! Microbenchmarks of one MLL invocation and its stages: region
//! extraction, interval construction, insertion-point enumeration with
//! evaluation, and realization.

use mrl_bench::timer::Bench;
use mrl_db::{Design, PlacementState};
use mrl_geom::{PowerRail, SiteRect};
use mrl_legalize::{
    find_best_insertion_point, realize, LegalizeCtx, LegalizerConfig, LocalRegion, PowerRailMode,
    TargetSpec,
};
use mrl_synth::{generate, BenchmarkSpec, GeneratorConfig};

/// A legalized medium design to extract windows from.
fn fixture() -> (Design, PlacementState) {
    let spec = BenchmarkSpec::new("bench_mll", 4_000, 400, 0.6, 0.0);
    let design = generate(&spec, &GeneratorConfig::default()).expect("generate");
    let mut state = PlacementState::new(&design);
    mrl_legalize::Legalizer::default()
        .legalize(&design, &mut state)
        .expect("legalize");
    (design, state)
}

fn bench_stages() {
    let (design, state) = fixture();
    let cfg = LegalizerConfig::paper().with_rail_mode(PowerRailMode::Relaxed);
    let bounds = design.floorplan().bounds();
    let (cx, cy) = (bounds.w / 2, bounds.h / 2);
    let window = SiteRect::new(cx - cfg.rx, cy - cfg.ry, 2 * cfg.rx + 3, 2 * cfg.ry + 2);
    let target = TargetSpec {
        w: 3,
        h: 2,
        x: cx,
        y: cy,
        rail: PowerRail::Vdd,
    };

    let b = Bench::new("mll_stages");
    let mut ctx = LegalizeCtx::new();
    b.run("extract_local_region", || {
        LocalRegion::extract(&design, &state, window)
    });

    let region = LocalRegion::extract(&design, &state, window);
    b.run("insertion_intervals", || {
        region.insertion_intervals(target.w)
    });

    b.run("find_best_insertion_point", || {
        find_best_insertion_point(&region, &design, &target, &cfg, &mut ctx)
    });

    if let Some(point) = find_best_insertion_point(&region, &design, &target, &cfg, &mut ctx) {
        b.run("realize", || realize(&region, &point, &target));
    }
}

fn bench_target_heights() {
    let (design, state) = fixture();
    let cfg = LegalizerConfig::paper().with_rail_mode(PowerRailMode::Relaxed);
    let bounds = design.floorplan().bounds();
    let (cx, cy) = (bounds.w / 2, bounds.h / 2);
    let b = Bench::new("enumeration_by_target_height");
    let mut ctx = LegalizeCtx::new();
    for h in [1i32, 2, 3] {
        let window = SiteRect::new(cx - cfg.rx, cy - cfg.ry, 2 * cfg.rx + 3, 2 * cfg.ry + h);
        let region = LocalRegion::extract(&design, &state, window);
        let target = TargetSpec {
            w: 3,
            h,
            x: cx,
            y: cy,
            rail: PowerRail::Vdd,
        };
        b.run(&format!("h{h}"), || {
            find_best_insertion_point(&region, &design, &target, &cfg, &mut ctx)
        });
    }
}

fn main() {
    bench_stages();
    bench_target_heights();
}
