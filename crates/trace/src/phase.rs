//! Per-phase wall-clock accounting for the MLL pipeline.
//!
//! A [`PhaseTimes`] accumulates call counts and wall-clock time for the
//! pipeline phases (extract / enumerate / evaluate / realize / retry /
//! escalate). It always records: every legalizer entry point carries one
//! inside the run's `LegalizeStats`, and a probe costs two clock reads.
//!
//! Phase nesting: `evaluate` time is spent *inside* `enumerate` (candidate
//! scoring during the scanline), and `retry` is the wall time of the whole
//! retry loop, which itself calls extract/enumerate/realize. The phases are
//! therefore not disjoint; see `PhaseTimes` field docs.

use std::time::{Duration, Instant};

/// One pipeline phase: the key for [`PhaseTimes::stop`] and the span kind
/// of [`crate::Sink::begin`]/[`crate::Sink::end`].
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

/// Wall-clock time and call counts per pipeline phase.
///
/// Probes are `start()`/`stop(phase, probe)` pairs.
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
    /// Wall time inside the escalation ladder (subset of `retry`).
    pub escalate: Duration,
    /// Escalation pipeline invocations (one per escalated target cell).
    pub escalate_calls: u64,
    /// Valid insertion-point combinations the scanline generated.
    pub combos_generated: u64,
    /// Combinations discarded by the branch-and-bound lower bound before
    /// any exact scoring ran.
    pub combos_pruned: u64,
    /// Combinations that reached `evaluate`/`evaluate_exact`.
    pub combos_evaluated: u64,
}

impl PhaseTimes {
    /// Starts a probe.
    #[inline]
    pub fn start(&self) -> Instant {
        Instant::now()
    }

    /// Ends a probe started by [`PhaseTimes::start`], attributing the
    /// elapsed time to `phase` and bumping its call count.
    #[inline]
    pub fn stop(&mut self, phase: Phase, probe: Instant) {
        let dt = probe.elapsed();
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
            Phase::Escalate => {
                self.escalate += dt;
                self.escalate_calls += 1;
            }
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
        self.escalate_calls += other.escalate_calls;
        self.combos_generated += other.combos_generated;
        self.combos_pruned += other.combos_pruned;
        self.combos_evaluated += other.combos_evaluated;
    }

    /// Exclusive pipeline time: extract + enumerate + realize. (`evaluate`
    /// is inside `enumerate`, and `retry` overlaps everything, so neither
    /// is added.)
    pub fn pipeline_total(&self) -> Duration {
        self.extract + self.enumerate + self.realize
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

    /// Call count attributed to `phase` (`retry_rounds` for retry).
    pub fn calls_of(&self, phase: Phase) -> u64 {
        match phase {
            Phase::Extract => self.extract_calls,
            Phase::Enumerate => self.enumerate_calls,
            Phase::Evaluate => self.evaluate_calls,
            Phase::Realize => self.realize_calls,
            Phase::Retry => self.retry_rounds,
            Phase::Escalate => self.escalate_calls,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_accumulate() {
        let mut t = PhaseTimes::default();
        let probe = t.start();
        t.stop(Phase::Enumerate, probe);
        assert_eq!(t.enumerate_calls, 1);
        let probe = t.start();
        t.stop(Phase::Enumerate, probe);
        assert_eq!(t.enumerate_calls, 2);
        assert_eq!(t.extract_calls, 0);
    }

    #[test]
    fn merge_sums_counts() {
        let mut t = PhaseTimes::default();
        t.combos_generated += 3;
        t.combos_pruned += 2;
        t.combos_evaluated += 1;
        let probe = t.start();
        t.stop(Phase::Realize, probe);
        let mut sum = PhaseTimes::default();
        sum.merge(&t);
        sum.merge(&t);
        assert_eq!(sum.combos_generated, 6);
        assert_eq!(sum.combos_pruned, 4);
        assert_eq!(sum.combos_evaluated, 2);
        assert_eq!(sum.realize_calls, 2);
        assert!(sum.pipeline_total() >= sum.realize);
    }

    #[test]
    fn phase_accessors_cover_all_phases() {
        let mut t = PhaseTimes::default();
        for phase in Phase::ALL {
            let probe = t.start();
            t.stop(phase, probe);
        }
        for phase in Phase::ALL {
            assert_eq!(t.calls_of(phase), 1, "{}", phase.name());
        }
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
