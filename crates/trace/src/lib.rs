//! Structured tracing and per-cell diagnostics for the MLL pipeline.
//!
//! The legalizer's kernel functions are generic over a [`Sink`] — a
//! statically dispatched event consumer. The default [`NoopSink`] has
//! `ENABLED = false`, every call site guards record construction with that
//! associated constant, and the whole layer monomorphizes away: a
//! trace-disabled run compiles to exactly the pre-trace hot path (guarded
//! by the bench harness's throughput gate).
//!
//! Three kinds of events exist:
//!
//! * **Spans** — begin/end pairs for the five pipeline phases
//!   ([`Phase`]: extract / enumerate / evaluate / realize / retry),
//!   nested (evaluate inside enumerate, everything inside retry rounds)
//!   and lane-tagged.
//! * **Counters** — named monotonic values sampled at a point in time.
//! * **Attempt records** ([`AttemptRecord`]) — one per placement attempt
//!   of a target cell: height class, window bounds, combo funnel counts,
//!   chosen insertion point, displacement, retry round, and a
//!   [`FailReason`] when the attempt failed.
//!
//! The recording sink is a bounded ring buffer ([`RingSink`]) tagged with
//! a *lane*. Lanes are logical, not physical: the parallel driver assigns
//! `stripe index + 1` (the sequential residue/retry pass is lane 0), so a
//! trace is a pure function of the stripe schedule and **identical for any
//! `--threads N`** up to timestamps. Per-lane sinks merge into a
//! [`TraceBuf`] at the wave barrier, in stripe order.
//!
//! Consumers: [`TraceBuf::to_chrome_json`] (Chrome/Perfetto Trace Event
//! JSON) and [`MetricsSummary`] (log2-bucket histograms + counters as
//! JSON). [`PhaseTimes`] — the aggregate per-phase wall-clock view that
//! predates this crate — lives here too and stays the cheap always-available
//! summary; `mrl_legalize` re-exports it at its crate root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod export;
mod metrics;
mod phase;
mod record;
mod sink;

pub use metrics::{Hist, MetricsSummary};
pub use phase::{Phase, PhaseTimes};
pub use record::{AttemptOutcome, AttemptRecord, EscalationCounters, FailCounts, FailReason};
pub use sink::{LaneSink, NoopSink, RingSink, Sink, TraceBuf, TraceEvent};
