//! Overhead of the structured-event layer.
//!
//! `LegalizeCtx::trace` is an `Option<TraceBuf>`: with `None`, every event
//! site costs one predictable branch and builds no payload. This bench
//! runs the sequential driver with `trace: None` (`legalize`) and with
//! `Some(TraceBuf)` (`legalize_with` on a traced context); the printed
//! ratio is what recording costs when switched on.

use mrl_bench::timer::Bench;
use mrl_db::{Design, PlacementState};
use mrl_legalize::{LegalizeCtx, Legalizer, LegalizerConfig, TraceBuf};
use mrl_synth::{generate, BenchmarkSpec, GeneratorConfig};

fn fixture(cells: usize, density: f64) -> Design {
    let spec = BenchmarkSpec::new(
        format!("bench_trace_{cells}"),
        cells - cells / 11,
        cells / 11,
        density,
        0.0,
    );
    generate(&spec, &GeneratorConfig::default()).expect("generate")
}

fn main() {
    let design = fixture(10_000, 0.6);
    let legalizer = Legalizer::new(LegalizerConfig::paper());
    let b = Bench::new("trace_overhead").slow();
    let untraced = b.run("trace_none", || {
        let mut state = PlacementState::new(&design);
        legalizer.legalize(&design, &mut state).expect("legalize")
    });
    let traced = b.run("trace_some", || {
        let mut state = PlacementState::new(&design);
        let mut ctx = LegalizeCtx::with_trace(TraceBuf::default());
        legalizer
            .legalize_with(&design, &mut state, &mut ctx)
            .expect("legalize");
        ctx.trace.map_or(0, |trace| trace.len())
    });
    println!(
        "trace_overhead: a recorded trace costs {:.2}x the untraced path",
        traced.as_secs_f64() / untraced.as_secs_f64().max(1e-12)
    );
}
