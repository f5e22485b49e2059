//! Structured tracing, the phase ledger and the run record of the MLL
//! pipeline.
//!
//! Every legalizer run fills a [`LegalizeStats`], whose [`PhaseTimes`]
//! ledger is always on. A run may also carry a [`TraceBuf`] (the
//! legalizer's context holds an `Option<TraceBuf>`); without one, each
//! event site costs one predictable branch. Both views are fed by the
//! same [`Probe`] at each phase boundary: it times the phase into the
//! ledger and, when a trace is attached, records the phase's span at the
//! same clock readings.
//!
//! Three kinds of events exist:
//!
//! * **Spans** — begin/end pairs for the pipeline phases ([`Phase`]:
//!   extract / enumerate / evaluate / realize / retry / escalate), nested
//!   (evaluate inside enumerate, everything inside retry rounds) and
//!   lane-tagged.
//! * **Counters** — named values sampled at a point in time.
//! * **Attempt records** ([`AttemptRecord`]) — one per placement attempt
//!   of a target cell: height class, window bounds, combo funnel counts,
//!   chosen insertion point, displacement, retry round, and a
//!   [`FailReason`] when the attempt failed.
//!
//! A [`TraceBuf`] is a bounded recorder tagged with a *lane*. Lanes are
//! logical, not physical: the parallel driver forks lane `stripe index +
//! 1` for each stripe and absorbs the finished lanes in stripe order, then
//! records its sequential residue/retry pass in lane 0. A trace is
//! therefore a pure function of the stripe schedule and **identical for
//! any `--threads N`** up to timestamps.
//!
//! Consumers: [`TraceBuf::to_chrome_json`] (Chrome/Perfetto Trace Event
//! JSON) and [`MetricsSummary`] (the run record, log2-bucket histograms
//! and counters as JSON). `mrl_legalize` re-exports this crate's public
//! items at its root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buf;
mod export;
mod metrics;
mod phase;
mod record;
mod stats;

pub use buf::{TraceBuf, TraceEvent};
pub use metrics::{Hist, MetricsSummary};
pub use phase::{Phase, PhaseTimes, Probe};
pub use record::{AttemptOutcome, AttemptRecord, EscalationCounters, FailCounts, FailReason};
pub use stats::LegalizeStats;
