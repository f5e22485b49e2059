//! The run record every legalizer driver fills.

use crate::buf::TraceBuf;
use crate::metrics::MetricsSummary;
use crate::phase::PhaseTimes;
use crate::record::{EscalationCounters, FailCounts};
use std::time::Duration;

/// Counters describing one legalization run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LegalizeStats {
    /// Cells placed (movable cells that were unplaced at entry).
    pub placed: usize,
    /// Cells placed directly at their snapped position without MLL.
    pub direct: usize,
    /// Cells placed by MLL.
    pub via_mll: usize,
    /// Number of retry rounds (`k` at loop exit; 0 when the first pass
    /// placed everything).
    pub retry_rounds: u32,
    /// Total MLL invocations, including failed ones.
    pub mll_calls: usize,
    /// Per-phase wall-clock breakdown (extract / enumerate / evaluate /
    /// realize / retry / escalate). In the parallel driver this is the
    /// *sum* over workers, so phase time can exceed [`LegalizeStats::wall`].
    pub phases: PhaseTimes,
    /// End-to-end wall time of the driver.
    pub wall: Duration,
    /// Worker threads used (1 for the sequential driver).
    pub threads: usize,
    /// Vertical stripes formed by the parallel driver (0 when sequential).
    pub stripes: usize,
    /// Stripes whose results were discarded because a move escaped the
    /// stripe halo (their cells were re-legalized sequentially).
    pub conflicts: usize,
    /// Cells that fell through the parallel phase (first-pass failures plus
    /// conflicting stripes) and were handled by the sequential retry pass.
    pub residue: usize,
    /// Failure-reason tallies. `no_insertion_point` and
    /// `region_extraction_empty` count failed *attempts* (a cell retried 3
    /// times contributes 3); `retry_budget_exhausted` counts *cells* still
    /// unplaced when the retry budget ran out.
    pub fail_counts: FailCounts,
    /// Escalation-tier engagement and success counters. All zero when
    /// escalation never engaged.
    pub escalation: EscalationCounters,
}

impl LegalizeStats {
    /// The metrics digest of this run (`--metrics-json`, the bench
    /// report): these statistics plus the histograms folded from the
    /// run's `trace`.
    pub fn metrics_summary(&self, design: &str, trace: &TraceBuf) -> MetricsSummary {
        let mut m = MetricsSummary {
            design: design.to_string(),
            stats: *self,
            ..MetricsSummary::default()
        };
        m.ingest(trace);
        m
    }
}
