//! Metrics summary: fixed log2-bucket histograms over the attempt records
//! plus the run's counters, serialized as JSON for `--metrics-json`,
//! `BENCH_legalize.json`, and `mrl report`.

use crate::buf::TraceBuf;
use crate::phase::Phase;
use crate::record::{AttemptOutcome, FailReason};
use crate::stats::LegalizeStats;
use std::fmt::Write as _;

/// A fixed log2-bucket histogram over `u64` samples.
///
/// Bucket 0 counts the value 0; bucket `i ≥ 1` counts values in
/// `[2^(i-1), 2^i)`; the last bucket absorbs everything above. Fixed
/// buckets make histograms mergeable and comparable across runs without
/// rebinning.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hist {
    /// Per-bucket counts.
    pub buckets: [u64; Hist::BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of all samples (for the mean).
    pub sum: u64,
}

impl Hist {
    /// Number of buckets: value 0, then 31 powers of two.
    pub const BUCKETS: usize = 32;

    /// The bucket index a value falls into.
    pub fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            (64 - value.leading_zeros() as usize).min(Hist::BUCKETS - 1)
        }
    }

    /// Adds one sample.
    pub fn add(&mut self, value: u64) {
        self.buckets[Hist::bucket_of(value)] += 1;
        self.count += 1;
        self.sum += value;
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Index of the highest non-empty bucket, if any sample was added.
    pub fn max_bucket(&self) -> Option<usize> {
        self.buckets.iter().rposition(|&c| c > 0)
    }

    /// Folds another histogram into this one. Because the buckets are
    /// fixed, merging N per-source histograms is exact: the result equals
    /// recording every sample into a single histogram (the telemetry
    /// snapshot-merge property test pins this).
    pub fn merge(&mut self, other: &Hist) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Upper bound of the bucket containing the `p`-quantile sample
    /// (`0.0 <= p <= 1.0`), i.e. a conservative percentile estimate with
    /// log2 resolution: the true p-quantile is `<=` the returned value.
    /// Returns 0 on an empty histogram; the absorbing last bucket reports
    /// `u64::MAX`.
    pub fn quantile_upper(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64) * p.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return match i {
                    0 => 0,
                    i if i == Hist::BUCKETS - 1 => u64::MAX,
                    i => (1u64 << i) - 1,
                };
            }
        }
        u64::MAX
    }

    fn append_json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"count\":{},\"sum\":{},\"buckets\":[",
            self.count, self.sum
        );
        for (i, b) in self.buckets.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{b}");
        }
        out.push_str("]}");
    }
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            buckets: [0; Hist::BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

/// The machine-readable digest of one legalization run.
///
/// Split into a *run* section (timing and environment: allowed to vary
/// between runs and thread counts) and *counters* / *fail_reasons* /
/// *histograms* sections that are deterministic for a given design and
/// configuration — identical for `--threads 1` and `--threads 4` because
/// the stripe schedule, not the worker count, decides what happens.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSummary {
    /// Design name.
    pub design: String,
    /// The run's statistics. `threads`, `wall` and the phase durations go
    /// to the run section (they vary); the counts go to the counters and
    /// fail_reasons sections.
    pub stats: LegalizeStats,
    /// Attempt records observed in the trace.
    pub attempts: u64,
    /// Trace events recorded.
    pub events: u64,
    /// Trace events dropped at lane capacity.
    pub dropped_events: u64,
    /// Realized displacement per placed attempt, in rounded site units
    /// (direct placements contribute 0).
    pub hist_displacement: Hist,
    /// Local-region size (cell count) per MLL attempt.
    pub hist_region_cells: Hist,
    /// Retry round at which each placed attempt succeeded.
    pub hist_retries: Hist,
    /// Additional named histograms appended to the `histograms` section —
    /// the serving path merges its live telemetry (batch/phase latency,
    /// escalations per batch) here so `mrl report` renders one document.
    /// Names must not collide with the three fixed histograms.
    pub extras: Vec<(String, Hist)>,
}

impl MetricsSummary {
    /// Schema identifier emitted in the JSON.
    pub const SCHEMA: &'static str = "mrl-metrics-v1";

    /// Folds the trace's attempt records and event counts into the
    /// histograms. The run counters come from [`MetricsSummary::stats`].
    pub fn ingest(&mut self, buf: &TraceBuf) {
        self.events = buf.len() as u64;
        self.dropped_events = buf.dropped();
        for rec in buf.attempts() {
            self.attempts += 1;
            match rec.outcome {
                AttemptOutcome::Direct { .. } => {
                    self.hist_displacement.add(0);
                    self.hist_retries.add(u64::from(rec.retry_round));
                }
                AttemptOutcome::Mll { cost, .. } => {
                    self.hist_displacement.add(cost.max(0.0).round() as u64);
                    self.hist_region_cells.add(u64::from(rec.region_cells));
                    self.hist_retries.add(u64::from(rec.retry_round));
                }
                AttemptOutcome::Fail(FailReason::RegionExtractionEmpty) => {}
                AttemptOutcome::Fail(_) => {
                    self.hist_region_cells.add(u64::from(rec.region_cells));
                }
            }
        }
    }

    /// Serializes the summary as JSON (object key order is fixed; the
    /// counters/fail_reasons/histograms sections are thread-count
    /// invariant, the run section is not).
    pub fn to_json_string(&self) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": \"{}\",", MetricsSummary::SCHEMA);
        // Run section: timing and environment.
        let st = &self.stats;
        let _ = write!(
            out,
            "  \"run\": {{\"design\": \"{}\", \"threads\": {}, \"wall_s\": {:.6}, \"phases\": {{",
            escape(&self.design),
            st.threads,
            st.wall.as_secs_f64()
        );
        for (i, phase) in Phase::ALL.into_iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}_s\": {:.6}",
                phase.name(),
                st.phases.time_of(phase).as_secs_f64()
            );
        }
        out.push_str("}},\n");
        // Deterministic counters.
        out.push_str("  \"counters\": {");
        let p = &st.phases;
        let counters: [(&str, u64); 16] = [
            ("placed", st.placed as u64),
            ("direct", st.direct as u64),
            ("via_mll", st.via_mll as u64),
            ("mll_calls", st.mll_calls as u64),
            ("retry_rounds", u64::from(st.retry_rounds)),
            ("stripes", st.stripes as u64),
            ("conflicts", st.conflicts as u64),
            ("residue", st.residue as u64),
            ("attempts", self.attempts),
            ("events", self.events),
            ("dropped_events", self.dropped_events),
            ("extract_calls", p.extract_calls),
            ("enumerate_calls", p.enumerate_calls),
            ("evaluate_calls", p.evaluate_calls),
            ("realize_calls", p.realize_calls),
            ("combos_generated", p.combos_generated),
        ];
        for (i, (k, v)) in counters
            .into_iter()
            .chain(st.escalation.entries())
            .chain([
                ("combos_pruned", p.combos_pruned),
                ("combos_evaluated", p.combos_evaluated),
            ])
            .enumerate()
        {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{k}\": {v}");
        }
        out.push_str("},\n");
        // Failure reasons (snake_case keys).
        out.push_str("  \"fail_reasons\": {");
        for (i, reason) in FailReason::ALL.into_iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {}",
                reason.code().replace('-', "_"),
                st.fail_counts.get(reason)
            );
        }
        out.push_str("},\n");
        // Histograms.
        out.push_str("  \"histograms\": {\n");
        for (i, (name, hist)) in [
            ("displacement_sites", &self.hist_displacement),
            ("region_cells", &self.hist_region_cells),
            ("retry_round", &self.hist_retries),
        ]
        .into_iter()
        .chain(self.extras.iter().map(|(n, h)| (n.as_str(), h)))
        .enumerate()
        {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(out, "    \"{name}\": ");
            hist.append_json(&mut out);
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::AttemptRecord;

    #[test]
    fn bucket_boundaries_are_log2() {
        assert_eq!(Hist::bucket_of(0), 0);
        assert_eq!(Hist::bucket_of(1), 1);
        assert_eq!(Hist::bucket_of(2), 2);
        assert_eq!(Hist::bucket_of(3), 2);
        assert_eq!(Hist::bucket_of(4), 3);
        assert_eq!(Hist::bucket_of(1023), 10);
        assert_eq!(Hist::bucket_of(1024), 11);
        assert_eq!(Hist::bucket_of(u64::MAX), Hist::BUCKETS - 1);
    }

    #[test]
    fn hist_tracks_count_sum_mean() {
        let mut h = Hist::default();
        for v in [0, 1, 2, 5] {
            h.add(v);
        }
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 8);
        assert_eq!(h.mean(), 2.0);
        assert_eq!(h.max_bucket(), Some(3));
        assert_eq!(Hist::default().max_bucket(), None);
    }

    #[test]
    fn ingest_buckets_attempts_by_outcome() {
        let mut buf = TraceBuf::new(64);
        let base = AttemptRecord {
            cell: 0,
            height: 1,
            retry_round: 0,
            window: [0, 0, 8, 1],
            region_cells: 4,
            combos_generated: 2,
            combos_pruned: 0,
            combos_evaluated: 2,
            outcome: AttemptOutcome::Direct { x: 1, y: 0 },
        };
        buf.attempt(base);
        buf.attempt(AttemptRecord {
            outcome: AttemptOutcome::Mll {
                x: 3,
                y: 0,
                cost: 5.4,
            },
            retry_round: 2,
            ..base
        });
        buf.attempt(AttemptRecord {
            outcome: AttemptOutcome::Fail(FailReason::NoInsertionPoint),
            ..base
        });
        let mut m = MetricsSummary::default();
        m.ingest(&buf);
        assert_eq!(m.attempts, 3);
        assert_eq!(m.events, 3);
        // Displacement: direct 0, mll round(5.4) = 5; the failure adds none.
        assert_eq!(m.hist_displacement.count, 2);
        assert_eq!(m.hist_displacement.sum, 5);
        // Region size observed for the mll attempt and the failed one.
        assert_eq!(m.hist_region_cells.count, 2);
        // Retry rounds of the two placements: 0 and 2.
        assert_eq!(m.hist_retries.count, 2);
        assert_eq!(m.hist_retries.sum, 2);
    }

    #[test]
    fn merge_equals_sequential_recording() {
        let (mut a, mut b, mut all) = (Hist::default(), Hist::default(), Hist::default());
        for (i, v) in [0u64, 1, 1, 7, 100, 4096, 1 << 50].into_iter().enumerate() {
            if i % 2 == 0 {
                a.add(v)
            } else {
                b.add(v)
            }
            all.add(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn quantile_upper_reports_bucket_bounds() {
        let mut h = Hist::default();
        assert_eq!(h.quantile_upper(0.5), 0);
        for v in [0u64, 2, 2, 2, 1000] {
            h.add(v);
        }
        assert_eq!(h.quantile_upper(0.0), 0); // rank 1 -> bucket 0
        assert_eq!(h.quantile_upper(0.5), 3); // rank 3 -> bucket [2,4)
        assert_eq!(h.quantile_upper(1.0), 1023); // rank 5 -> bucket [512,1024)
        let mut top = Hist::default();
        top.add(u64::MAX);
        assert_eq!(top.quantile_upper(0.5), u64::MAX);
    }

    #[test]
    fn extras_render_into_histograms_section() {
        let mut extra = Hist::default();
        extra.add(5);
        let m = MetricsSummary {
            extras: vec![("batch_latency_us".into(), extra)],
            ..MetricsSummary::default()
        };
        let json = m.to_json_string();
        assert!(json.contains("\"batch_latency_us\""), "{json}");
        assert!(json.contains("\"retry_round\""), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn json_has_fixed_sections() {
        let mut m = MetricsSummary {
            design: "t\"est".into(),
            ..MetricsSummary::default()
        };
        m.stats.threads = 4;
        m.stats.placed = 10;
        m.stats.fail_counts.record(FailReason::NoInsertionPoint);
        let json = m.to_json_string();
        assert!(json.contains("\"schema\": \"mrl-metrics-v1\""));
        assert!(json.contains("\"design\": \"t\\\"est\""));
        assert!(json.contains("\"no_insertion_point\": 1"));
        assert!(json.contains("\"retry_budget_exhausted\": 0"));
        assert!(json.contains("\"escalation_exhausted\": 0"));
        assert!(json.contains("\"escalation_engaged\": 0"));
        assert!(json.contains("\"ilp_placed\": 0"));
        assert!(json.contains("\"placed\": 10"));
        assert!(json.contains("\"threads\": 4"));
        // Escalation runs are counted once, as `escalation_engaged`.
        assert!(!json.contains("escalate_calls"));
        assert!(json.contains("\"displacement_sites\""));
        assert!(json.contains("\"extract_s\""));
        // Braces balance (cheap well-formedness check; the real parse
        // check lives in mrl-bench's tests against Json::parse).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
