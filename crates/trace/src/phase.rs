//! Per-phase wall-clock accounting for the MLL pipeline.
//!
//! A [`PhaseTimes`] accumulates call counts and wall-clock time for the
//! pipeline phases (extract / enumerate / evaluate / realize / retry /
//! escalate). It always records: every legalizer entry point carries one
//! inside the run's [`crate::LegalizeStats`]. A [`Probe`] times one phase
//! boundary with two clock reads and, when a trace is attached, records
//! the phase's span at the same two readings.
//!
//! Phase nesting: `evaluate` time is spent *inside* `enumerate` (candidate
//! scoring during the scanline), and `retry` is the wall time of the whole
//! retry loop, which itself calls extract/enumerate/realize. The phases are
//! therefore not disjoint; see `PhaseTimes` field docs.

use crate::buf::TraceBuf;
use std::time::{Duration, Instant};

/// One pipeline phase: the ledger row a [`Probe`] adds to and the kind of
/// the span it records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Local-region extraction from the occupancy index.
    Extract,
    /// Insertion-point enumeration (the scanline, *including* scoring).
    Enumerate,
    /// Candidate scoring (the `evaluate`/`evaluate_exact` share of the
    /// scanline).
    Evaluate,
    /// Realization: optimal shifting, `shift_batch`, and the final place.
    Realize,
    /// The driver's random-offset retry loop (wall time of whole rounds;
    /// overlaps the other four phases).
    Retry,
    /// The escalation ladder (ripple chains / height-binned repack /
    /// ILP-local) run for one target cell; nested inside `retry`.
    Escalate,
}

impl Phase {
    /// Every phase, in pipeline order.
    pub const ALL: [Phase; 6] = [
        Phase::Extract,
        Phase::Enumerate,
        Phase::Evaluate,
        Phase::Realize,
        Phase::Retry,
        Phase::Escalate,
    ];

    /// Stable lowercase name (used as the span name in trace exports).
    pub const fn name(self) -> &'static str {
        match self {
            Phase::Extract => "extract",
            Phase::Enumerate => "enumerate",
            Phase::Evaluate => "evaluate",
            Phase::Realize => "realize",
            Phase::Retry => "retry",
            Phase::Escalate => "escalate",
        }
    }
}

/// Wall-clock time and call counts per pipeline phase, filled by
/// [`Probe`]s.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    /// Time extracting local regions.
    pub extract: Duration,
    /// Number of region extractions.
    pub extract_calls: u64,
    /// Time enumerating insertion points (includes `evaluate`).
    pub enumerate: Duration,
    /// Number of enumeration scans.
    pub enumerate_calls: u64,
    /// Time scoring candidate insertion points (subset of `enumerate`).
    pub evaluate: Duration,
    /// Number of candidates scored.
    pub evaluate_calls: u64,
    /// Time realizing chosen insertion points (shift + place).
    pub realize: Duration,
    /// Number of realizations.
    pub realize_calls: u64,
    /// Wall time of the driver retry loop (overlaps the other phases).
    pub retry: Duration,
    /// Retry rounds timed.
    pub retry_rounds: u64,
    /// Wall time inside the escalation ladder (subset of `retry`). Its
    /// invocations are counted by `EscalationCounters::engaged`.
    pub escalate: Duration,
    /// Valid insertion-point combinations the scanline generated.
    pub combos_generated: u64,
    /// Combinations discarded by the branch-and-bound lower bound before
    /// any exact scoring ran.
    pub combos_pruned: u64,
    /// Combinations that reached `evaluate`/`evaluate_exact`.
    pub combos_evaluated: u64,
}

impl PhaseTimes {
    /// Attributes `dt` to `phase` and counts one call (escalation excepted).
    #[inline]
    fn add(&mut self, phase: Phase, dt: Duration) {
        match phase {
            Phase::Extract => {
                self.extract += dt;
                self.extract_calls += 1;
            }
            Phase::Enumerate => {
                self.enumerate += dt;
                self.enumerate_calls += 1;
            }
            Phase::Evaluate => {
                self.evaluate += dt;
                self.evaluate_calls += 1;
            }
            Phase::Realize => {
                self.realize += dt;
                self.realize_calls += 1;
            }
            Phase::Retry => {
                self.retry += dt;
                self.retry_rounds += 1;
            }
            Phase::Escalate => self.escalate += dt,
        }
    }

    /// Folds another accumulator into this one (used to merge per-worker
    /// timings in the parallel driver). Merging is associative and
    /// commutative (every field is an independent sum), which is what
    /// makes the parallel driver's stripe-order merge equivalent to any
    /// other order.
    pub fn merge(&mut self, other: &PhaseTimes) {
        self.extract += other.extract;
        self.extract_calls += other.extract_calls;
        self.enumerate += other.enumerate;
        self.enumerate_calls += other.enumerate_calls;
        self.evaluate += other.evaluate;
        self.evaluate_calls += other.evaluate_calls;
        self.realize += other.realize;
        self.realize_calls += other.realize_calls;
        self.retry += other.retry;
        self.retry_rounds += other.retry_rounds;
        self.escalate += other.escalate;
        self.combos_generated += other.combos_generated;
        self.combos_pruned += other.combos_pruned;
        self.combos_evaluated += other.combos_evaluated;
    }

    /// Wall time attributed to `phase`.
    pub fn time_of(&self, phase: Phase) -> Duration {
        match phase {
            Phase::Extract => self.extract,
            Phase::Enumerate => self.enumerate,
            Phase::Evaluate => self.evaluate,
            Phase::Realize => self.realize,
            Phase::Retry => self.retry,
            Phase::Escalate => self.escalate,
        }
    }
}

/// One open phase boundary: [`Probe::open`] reads the clock and
/// [`Probe::close`] reads it again, adds the elapsed time and one call to
/// the phase's ledger row, and — when a trace is attached — records the
/// phase's begin and end events at the same two readings.
#[must_use = "a probe records nothing until it is closed"]
#[derive(Debug)]
pub struct Probe {
    phase: Phase,
    start: Instant,
}

impl Probe {
    /// Opens `phase`, and its span in `trace` if one is attached.
    #[inline]
    pub fn open(phase: Phase, trace: &mut Option<TraceBuf>) -> Probe {
        let start = Instant::now();
        if let Some(trace) = trace {
            trace.begin(phase, start);
        }
        Probe { phase, start }
    }

    /// Closes the probe into `phases`, and its span in `trace` if one is
    /// attached.
    #[inline]
    pub fn close(self, phases: &mut PhaseTimes, trace: &mut Option<TraceBuf>) {
        let now = Instant::now();
        if let Some(trace) = trace {
            trace.end(self.phase, now);
        }
        phases.add(self.phase, now.saturating_duration_since(self.start));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buf::TraceEvent;

    #[test]
    fn probes_accumulate() {
        let mut t = PhaseTimes::default();
        Probe::open(Phase::Enumerate, &mut None).close(&mut t, &mut None);
        assert_eq!(t.enumerate_calls, 1);
        Probe::open(Phase::Enumerate, &mut None).close(&mut t, &mut None);
        assert_eq!(t.enumerate_calls, 2);
        assert_eq!(t.extract_calls, 0);
    }

    #[test]
    fn a_traced_probe_records_its_span_at_the_ledger_readings() {
        let mut t = PhaseTimes::default();
        let mut trace = Some(TraceBuf::new(16));
        let outer = Probe::open(Phase::Retry, &mut trace);
        Probe::open(Phase::Escalate, &mut trace).close(&mut t, &mut trace);
        outer.close(&mut t, &mut trace);
        assert_eq!(t.retry_rounds, 1);
        let events = trace.unwrap().events().to_vec();
        let spans: Vec<(bool, Phase)> = events
            .iter()
            .map(|&(_, ev)| match ev {
                TraceEvent::Begin { phase, .. } => (true, phase),
                TraceEvent::End { phase, .. } => (false, phase),
                _ => unreachable!("a probe records only spans"),
            })
            .collect();
        assert_eq!(
            spans,
            [
                (true, Phase::Retry),
                (true, Phase::Escalate),
                (false, Phase::Escalate),
                (false, Phase::Retry)
            ]
        );
        let (begin, end) = (events[0].1.ts_ns(), events[3].1.ts_ns());
        assert_eq!(Duration::from_nanos(end - begin), t.retry);
    }

    #[test]
    fn merge_sums_counts() {
        let mut t = PhaseTimes::default();
        t.combos_generated += 3;
        t.combos_pruned += 2;
        t.combos_evaluated += 1;
        Probe::open(Phase::Realize, &mut None).close(&mut t, &mut None);
        let mut sum = PhaseTimes::default();
        sum.merge(&t);
        sum.merge(&t);
        assert_eq!(sum.combos_generated, 6);
        assert_eq!(sum.combos_pruned, 4);
        assert_eq!(sum.combos_evaluated, 2);
        assert_eq!(sum.realize_calls, 2);
    }

    #[test]
    fn phase_accessors_cover_all_phases() {
        let by_field = PhaseTimes {
            extract: Duration::from_nanos(1),
            enumerate: Duration::from_nanos(2),
            evaluate: Duration::from_nanos(3),
            realize: Duration::from_nanos(4),
            retry: Duration::from_nanos(5),
            escalate: Duration::from_nanos(6),
            ..PhaseTimes::default()
        };
        for (i, phase) in Phase::ALL.into_iter().enumerate() {
            assert_eq!(
                by_field.time_of(phase),
                Duration::from_nanos(i as u64 + 1),
                "{}",
                phase.name()
            );
        }
    }
}
