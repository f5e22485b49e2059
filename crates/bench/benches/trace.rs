//! Overhead of the structured-event layer.
//!
//! The `Sink` trait is static-dispatch with `ENABLED = false` for
//! `NoopSink`, so every `if S::ENABLED { … }` guard — including the
//! construction of the event payloads — must fold away at
//! monomorphization. This bench pins that claim: `legalize` (which routes
//! through `legalize_with` on a `NoopSink` context) must run at the same
//! speed as it did before the trace layer existed, and the printed ratio
//! against a `RingSink` run shows what recording actually costs when
//! switched on.

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
    let noop = b.run("noop_sink", || {
        let mut state = PlacementState::new(&design);
        legalizer.legalize(&design, &mut state).expect("legalize")
    });
    let ring = b.run("ring_sink", || {
        let mut buf = TraceBuf::default();
        let mut state = PlacementState::new(&design);
        let mut ctx = LegalizeCtx::with_sink(buf.lane(0));
        legalizer
            .legalize_with(&design, &mut state, &mut ctx)
            .expect("legalize");
        buf.absorb(ctx.sink);
        buf.len()
    });
    println!(
        "trace_overhead: ring sink costs {:.2}x the no-op path",
        ring.as_secs_f64() / noop.as_secs_f64().max(1e-12)
    );
}
