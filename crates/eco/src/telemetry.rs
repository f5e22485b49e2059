//! Live serving telemetry: the static metric registry of an
//! [`EcoSession`](crate::EcoSession) plus its consumers.
//!
//! Every session owns one [`ServeTelemetry`] from birth — telemetry is
//! always on. Recording is a few relaxed atomics per batch (see
//! `mrl-telemetry`), and crucially it is **observation-only**: nothing
//! here feeds back into a placement decision, so the eco fuzz regime's
//! bit-identity and rollback oracles hold with instrumentation enabled.
//!
//! Three read paths share the one registry:
//!
//! * Prometheus text exposition + `/healthz` over HTTP
//!   (`mrl serve --metrics-addr`, via [`mrl_telemetry::spawn_exporter`]);
//! * periodic flat NDJSON stats lines on stderr
//!   (`mrl serve --stats-every N`, via [`ServeTelemetry::stats_line`]);
//! * a final mrl-metrics-v1 summary merge
//!   ([`ServeTelemetry::to_metrics_summary`]) so `mrl report` and
//!   `bench_serve` render serve histograms with the same machinery as
//!   legalization runs.

use std::sync::Arc;
use std::time::Instant;

use mrl_bench::json::Json;
use mrl_telemetry::{expo, AtomicHist, Collect, Counter, Gauge, Registry};
use mrl_trace::{LegalizeStats, MetricsSummary};

/// Why a batch rolled back, as a bounded label set (the free-form message
/// stays on the wire response; the counter needs a stable cardinality).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum RejectReason {
    /// `Edit::Resize` parameters the design rejected.
    Resize,
    /// `Edit::Insert` parameters the design rejected.
    Insert,
    /// Re-legalization of the disturbed window failed.
    Legalize,
    /// Induced displacement exceeded the batch budget.
    Budget,
}

/// The always-on metric set of one serving session.
pub struct ServeTelemetry {
    registry: Registry,
    start: Instant,

    // Outcome counters.
    pub(crate) batches_applied: Arc<Counter>,
    pub(crate) batches_rejected: Arc<Counter>,
    pub(crate) batches_error: Arc<Counter>,
    pub(crate) rejects_resize: Arc<Counter>,
    pub(crate) rejects_insert: Arc<Counter>,
    pub(crate) rejects_legalize: Arc<Counter>,
    pub(crate) rejects_budget: Arc<Counter>,
    /// Malformed NDJSON lines (incremented by the serve loop).
    pub(crate) errors_parse: Arc<Counter>,
    pub(crate) errors_invalid_edit: Arc<Counter>,
    pub(crate) errors_internal: Arc<Counter>,
    pub(crate) edits_move: Arc<Counter>,
    pub(crate) edits_resize: Arc<Counter>,
    pub(crate) edits_insert: Arc<Counter>,
    pub(crate) edits_delete: Arc<Counter>,

    // Latency funnel.
    /// Time blocked reading a request line (includes client think time;
    /// recorded by the serve loop).
    pub(crate) phase_read: Arc<AtomicHist>,
    /// NDJSON parse time per request line (recorded by the serve loop).
    pub(crate) phase_parse: Arc<AtomicHist>,
    pub(crate) phase_validate: Arc<AtomicHist>,
    pub(crate) phase_legalize: Arc<AtomicHist>,
    /// Response write time (recorded by the serve loop).
    pub(crate) phase_respond: Arc<AtomicHist>,
    pub(crate) batch_latency: Arc<AtomicHist>,
    pub(crate) induced_disp: Arc<AtomicHist>,
    pub(crate) escalations: Arc<AtomicHist>,

    // Session gauges.
    pub(crate) live_cells: Arc<Gauge>,
    pub(crate) tombstoned_cells: Arc<Gauge>,
    pub(crate) index_bytes: Arc<Gauge>,
    pub(crate) index_slack_bytes: Arc<Gauge>,
    pub(crate) journal_depth: Arc<Gauge>,
    pub(crate) batches_since_start: Arc<Gauge>,
    healthy: Arc<Gauge>,
}

impl ServeTelemetry {
    /// Builds the registry with every serve metric registered.
    pub fn new() -> Self {
        let mut r = Registry::new();
        let start = Instant::now();
        let batches = "mrl_serve_batches_total";
        let batches_help = "Edit batches by outcome.";
        let rejects = "mrl_serve_rejects_total";
        let rejects_help = "Rolled-back batches by reason.";
        let errors = "mrl_serve_errors_total";
        let errors_help = "Requests that could not be processed, by reason.";
        let edits = "mrl_serve_edits_total";
        let edits_help = "Individual edits received, by op.";
        let phase = "mrl_serve_phase_latency_us";
        let phase_help = "Per-batch phase latency in microseconds.";
        let t = ServeTelemetry {
            batches_applied: r.counter_with(batches, batches_help, &[("outcome", "applied")]),
            batches_rejected: r.counter_with(batches, batches_help, &[("outcome", "rejected")]),
            batches_error: r.counter_with(batches, batches_help, &[("outcome", "error")]),
            rejects_resize: r.counter_with(rejects, rejects_help, &[("reason", "resize")]),
            rejects_insert: r.counter_with(rejects, rejects_help, &[("reason", "insert")]),
            rejects_legalize: r.counter_with(rejects, rejects_help, &[("reason", "legalize")]),
            rejects_budget: r.counter_with(rejects, rejects_help, &[("reason", "budget")]),
            errors_parse: r.counter_with(errors, errors_help, &[("reason", "parse")]),
            errors_invalid_edit: r.counter_with(errors, errors_help, &[("reason", "invalid_edit")]),
            errors_internal: r.counter_with(errors, errors_help, &[("reason", "internal")]),
            edits_move: r.counter_with(edits, edits_help, &[("op", "move")]),
            edits_resize: r.counter_with(edits, edits_help, &[("op", "resize")]),
            edits_insert: r.counter_with(edits, edits_help, &[("op", "insert")]),
            edits_delete: r.counter_with(edits, edits_help, &[("op", "delete")]),
            phase_read: r.hist_with(phase, phase_help, &[("phase", "read")]),
            phase_parse: r.hist_with(phase, phase_help, &[("phase", "parse")]),
            phase_validate: r.hist_with(phase, phase_help, &[("phase", "validate")]),
            phase_legalize: r.hist_with(phase, phase_help, &[("phase", "legalize")]),
            phase_respond: r.hist_with(phase, phase_help, &[("phase", "respond")]),
            batch_latency: r.hist(
                "mrl_serve_batch_latency_us",
                "End-to-end apply latency per batch in microseconds.",
            ),
            induced_disp: r.hist(
                "mrl_serve_induced_disp_sites",
                "Manhattan displacement inflicted on unnamed cells per applied batch.",
            ),
            escalations: r.hist(
                "mrl_serve_escalations_per_batch",
                "Escalation-tier engagements per batch.",
            ),
            live_cells: r.gauge("mrl_session_live_cells", "Cells alive (not tombstoned)."),
            tombstoned_cells: r.gauge(
                "mrl_session_tombstoned_cells",
                "Deleted (tombstoned) cells.",
            ),
            index_bytes: r.gauge(
                "mrl_session_index_bytes",
                "Bytes held by the CSR occupancy-index arenas.",
            ),
            index_slack_bytes: r.gauge(
                "mrl_session_index_slack_bytes",
                "Index arena bytes not occupied by live entries (compaction debt).",
            ),
            journal_depth: r.gauge(
                "mrl_session_journal_depth",
                "First-touch journal length of the last batch (its disturbance footprint).",
            ),
            batches_since_start: r.gauge(
                "mrl_session_batches_since_start",
                "Batches processed (applied + rejected) since session start.",
            ),
            healthy: r.gauge(
                "mrl_serve_healthy",
                "1 while the session is serviceable; 0 after poisoning or an internal error.",
            ),
            registry: Registry::new(),
            start,
        };
        r.gauge_fn(
            "mrl_serve_uptime_seconds",
            "Seconds since the session opened.",
            Arc::new(move || start.elapsed().as_secs_f64()),
        );
        t.healthy.set(1);
        ServeTelemetry { registry: r, ..t }
    }

    pub(crate) fn record_reject(&self, reason: RejectReason) {
        match reason {
            RejectReason::Resize => self.rejects_resize.inc(),
            RejectReason::Insert => self.rejects_insert.inc(),
            RejectReason::Legalize => self.rejects_legalize.inc(),
            RejectReason::Budget => self.rejects_budget.inc(),
        }
    }

    /// Marks the session unserviceable; `/healthz` answers 503 from now
    /// on. Flipped automatically on internal errors, and manually by the
    /// serve loop's `#poison` directive (drain hook).
    pub fn poison(&self) {
        self.healthy.set(0);
    }

    /// One flat NDJSON stats line (sorted keys, byte-stable for equal
    /// values, no trailing newline) for `--stats-every` and the shutdown
    /// summary. `event` distinguishes periodic (`"stats"`) from final
    /// (`"shutdown"`) lines in a log pipeline.
    pub fn stats_line(&self, event: &str) -> String {
        let lat = self.batch_latency.snapshot();
        let mut j = Json::obj();
        j.set("event", event)
            .set("applied", self.batches_applied.get())
            .set("rejected", self.batches_rejected.get())
            .set("errors", self.batches_error.get())
            .set("errors_parse", self.errors_parse.get())
            .set(
                "batches",
                self.batches_applied.get() + self.batches_rejected.get(),
            )
            .set("batch_p50_us", lat.quantile_upper(0.50))
            .set("batch_p90_us", lat.quantile_upper(0.90))
            .set("batch_p99_us", lat.quantile_upper(0.99))
            .set("live_cells", self.live_cells.get())
            .set("tombstoned_cells", self.tombstoned_cells.get())
            .set("index_bytes", self.index_bytes.get())
            .set("index_slack_bytes", self.index_slack_bytes.get())
            .set("journal_depth", self.journal_depth.get())
            .set("healthy", self.healthy.get() == 1)
            .set(
                "uptime_s",
                (self.start.elapsed().as_secs_f64() * 1e3).round() / 1e3,
            );
        j.compact()
    }

    /// Folds the live histograms into an mrl-metrics-v1 summary: induced
    /// displacement lands in the standard `displacement_sites` slot, the
    /// serve-specific series ride in the extras section. `mrl report`
    /// renders the result exactly like a legalization run's metrics.
    pub fn to_metrics_summary(&self, design: &str) -> MetricsSummary {
        MetricsSummary {
            design: design.to_string(),
            stats: LegalizeStats {
                threads: 1,
                wall: self.start.elapsed(),
                ..LegalizeStats::default()
            },
            hist_displacement: self.induced_disp.snapshot(),
            extras: vec![
                (
                    "serve_batch_latency_us".into(),
                    self.batch_latency.snapshot(),
                ),
                ("serve_phase_read_us".into(), self.phase_read.snapshot()),
                ("serve_phase_parse_us".into(), self.phase_parse.snapshot()),
                (
                    "serve_phase_validate_us".into(),
                    self.phase_validate.snapshot(),
                ),
                (
                    "serve_phase_legalize_us".into(),
                    self.phase_legalize.snapshot(),
                ),
                (
                    "serve_phase_respond_us".into(),
                    self.phase_respond.snapshot(),
                ),
                (
                    "serve_escalations_per_batch".into(),
                    self.escalations.snapshot(),
                ),
            ],
            ..MetricsSummary::default()
        }
    }
}

impl Default for ServeTelemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl Collect for ServeTelemetry {
    fn metrics_text(&self) -> String {
        expo::render(&self.registry)
    }

    fn healthy(&self) -> bool {
        self.healthy.get() == 1
    }
}
