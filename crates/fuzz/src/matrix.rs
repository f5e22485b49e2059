//! The differential invariant matrix run on every fuzz case.
//!
//! One scenario is legalized under a matrix of configurations and the
//! outcomes are cross-validated:
//!
//! * **witness feasibility** — the scenario was grown from a legal
//!   placement, so legalization must *succeed*;
//! * **independent legality** — every produced placement must pass
//!   [`mrl_metrics::check_legal`], which shares no code with the
//!   legalizer's incremental bookkeeping;
//! * **thread invariance** — the parallel stripe driver must match the
//!   sequential driver for every thread count;
//! * **displacement bound** — the witness achieves a known average
//!   displacement, so the legalizer's average must stay within a
//!   configured factor of it (the paper's local-window model moves cells
//!   only as far as overlap resolution requires);
//! * **x-translation equivariance** — translating the whole instance by
//!   `dx` sites must translate the result by exactly `dx`;
//! * **baseline legality** — the Abacus/Tetris baselines may give up, but
//!   any placement they do return must be legal.

use crate::scenario::Scenario;
use mrl_baselines::{AbacusLegalizer, TetrisLegalizer};
use mrl_db::{Design, PlacementState};
use mrl_legalize::{
    CellOrder, EscalationConfig, LegalizeCtx, LegalizeStats, Legalizer, LegalizerConfig,
    PowerRailMode,
};
use mrl_metrics::{check_legal, RailCheck};
use std::fmt;

/// A deliberately injected fault for exercising the harness itself (the
/// discrepancy → shrink → reproducer pipeline must be testable without a
/// real legalizer bug).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum Fault {
    /// Emulates an off-by-one realize shift in the parallel driver: the
    /// last placed cell of the first parallel run is reported one site off.
    ThreadOffByOne,
    /// Disables every escalation tier in all matrix configurations. Under
    /// the dense regime this must produce `LegalizeFailed` discrepancies —
    /// the self-test proving the dense matrix actually depends on the
    /// tiers (and would catch their regressions).
    TiersDisabled,
}

/// Configuration of one matrix run.
#[derive(Clone, Debug)]
pub struct MatrixOptions {
    /// Seed handed to every legalizer config in the matrix.
    pub legalizer_seed: u64,
    /// Thread counts for the parallel driver (sequential always runs).
    pub threads: Vec<usize>,
    /// Sites to translate the instance by for the equivariance check.
    pub translation_dx: i32,
    /// Allowed factor over the witness average displacement, plus a
    /// one-site absolute allowance (`avg ≤ slack · witness_avg + slack`).
    pub disp_slack: f64,
    /// Retry cap; low so genuinely stuck cases fail fast.
    pub max_retries: u32,
    /// Cell visit order. Area-descending by default: the paper allows any
    /// order, and placing large multi-row cells while space is plentiful
    /// keeps the heuristic reliably complete on witness instances (input
    /// order deadlocks on wide double-row cells visited last at high
    /// utilization — found by this very harness).
    pub order: CellOrder,
    /// Whether to run the Abacus/Tetris baselines.
    pub baselines: bool,
    /// Optional injected fault (harness self-test only). Every tier of the
    /// escalation ladder is on unless [`Fault::TiersDisabled`] switches
    /// them off; the dense regime is heuristic-complete only with them on.
    pub fault: Option<Fault>,
}

impl MatrixOptions {
    /// The default matrix around an explicit legalizer seed.
    pub fn new(legalizer_seed: u64) -> Self {
        Self {
            legalizer_seed,
            threads: vec![1, 2, 4],
            translation_dx: 7,
            disp_slack: 4.0,
            max_retries: 512,
            order: CellOrder::ByAreaDesc,
            baselines: true,
            fault: None,
        }
    }
}

/// What went wrong, at the granularity the shrinker preserves.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum DiscrepancyKind {
    /// The scenario did not rebuild into a valid design. Never a legalizer
    /// bug; kept distinct so shrink candidates that degenerate into
    /// unbuildable designs are rejected instead of "reproducing".
    BuildFailed,
    /// Legalization failed although the witness proves feasibility.
    LegalizeFailed,
    /// The sequential result failed the independent checker.
    IllegalResult,
    /// A parallel run differed from the sequential result.
    ThreadMismatch,
    /// Rail-relaxed legalization failed.
    RelaxedFailed,
    /// The rail-relaxed result failed the (relaxed) checker.
    RelaxedIllegal,
    /// Average displacement exceeded the witness-derived bound.
    DisplacementBound,
    /// Translating the instance did not translate the result.
    TranslationMismatch,
    /// A baseline returned an illegal placement.
    BaselineIllegal,
    /// An ECO session left the placement illegal (or its occupancy index
    /// inconsistent) after committing a batch, or rejected a
    /// generator-guaranteed-valid edit as invalid.
    EcoIllegal,
    /// Identical edit streams applied over thread-variant base
    /// legalizations ended in different placements.
    EcoThreadDivergence,
    /// A rejected batch did not roll the session back bit-exactly.
    EcoRollbackDivergence,
    /// The session legalized every committed edit, proving the post-edit
    /// design feasible, but from-scratch legalization of that design
    /// failed or produced an illegal placement.
    EcoFullRelegalizeFailed,
}

impl fmt::Display for DiscrepancyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl DiscrepancyKind {
    /// Stable lower-snake slug for corpus directory names.
    pub fn slug(self) -> &'static str {
        match self {
            DiscrepancyKind::BuildFailed => "build_failed",
            DiscrepancyKind::LegalizeFailed => "legalize_failed",
            DiscrepancyKind::IllegalResult => "illegal_result",
            DiscrepancyKind::ThreadMismatch => "thread_mismatch",
            DiscrepancyKind::RelaxedFailed => "relaxed_failed",
            DiscrepancyKind::RelaxedIllegal => "relaxed_illegal",
            DiscrepancyKind::DisplacementBound => "displacement_bound",
            DiscrepancyKind::TranslationMismatch => "translation_mismatch",
            DiscrepancyKind::BaselineIllegal => "baseline_illegal",
            DiscrepancyKind::EcoIllegal => "eco_illegal",
            DiscrepancyKind::EcoThreadDivergence => "eco_thread_divergence",
            DiscrepancyKind::EcoRollbackDivergence => "eco_rollback_divergence",
            DiscrepancyKind::EcoFullRelegalizeFailed => "eco_full_relegalize_failed",
        }
    }

    /// Parses a slug back (corpus replay).
    pub fn from_slug(s: &str) -> Option<Self> {
        [
            DiscrepancyKind::BuildFailed,
            DiscrepancyKind::LegalizeFailed,
            DiscrepancyKind::IllegalResult,
            DiscrepancyKind::ThreadMismatch,
            DiscrepancyKind::RelaxedFailed,
            DiscrepancyKind::RelaxedIllegal,
            DiscrepancyKind::DisplacementBound,
            DiscrepancyKind::TranslationMismatch,
            DiscrepancyKind::BaselineIllegal,
            DiscrepancyKind::EcoIllegal,
            DiscrepancyKind::EcoThreadDivergence,
            DiscrepancyKind::EcoRollbackDivergence,
            DiscrepancyKind::EcoFullRelegalizeFailed,
        ]
        .into_iter()
        .find(|k| k.slug() == s)
    }
}

/// One detected violation of the invariant matrix.
#[derive(Clone, Debug)]
pub struct Discrepancy {
    /// The invariant that failed.
    pub kind: DiscrepancyKind,
    /// Human-readable diagnostics.
    pub detail: String,
}

impl fmt::Display for Discrepancy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind, self.detail)
    }
}

pub(crate) fn base_config(opts: &MatrixOptions) -> LegalizerConfig {
    let escalation = if opts.fault == Some(Fault::TiersDisabled) {
        EscalationConfig::disabled()
    } else {
        EscalationConfig::default()
    };
    LegalizerConfig::paper()
        .with_seed(opts.legalizer_seed)
        .with_order(opts.order)
        .with_max_retries(opts.max_retries)
        .with_escalation(escalation)
}

/// Movable-cell placements in cell-index order; `None` entries are
/// unplaced cells (possible only after a driver error).
type Positions = Vec<Option<(i32, i32)>>;

fn positions_of(design: &Design, state: &PlacementState) -> Positions {
    design
        .movable_cells()
        .map(|c| state.position(c).map(|p| (p.x, p.y)))
        .collect()
}

fn first_difference(design: &Design, a: &Positions, b: &Positions, dx: i32) -> String {
    for (i, cell) in design.movable_cells().enumerate() {
        let shifted = a[i].map(|(x, y)| (x + dx, y));
        if shifted != b[i] {
            return format!(
                "cell {} ({}): {:?} vs {:?}",
                i,
                design.cell(cell).name(),
                shifted,
                b[i]
            );
        }
    }
    "no per-cell difference (length mismatch?)".into()
}

fn avg_manhattan_disp(design: &Design, state: &PlacementState) -> f64 {
    let mut total = 0.0;
    let mut n = 0usize;
    for c in design.movable_cells() {
        if let Some(p) = state.position(c) {
            let (fx, fy) = design.input_position(c);
            total += (fx - f64::from(p.x)).abs() + (fy - f64::from(p.y)).abs();
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

/// Runs the full matrix; returns every discrepancy found (empty = clean).
pub fn run_matrix(scenario: &Scenario, opts: &MatrixOptions) -> Vec<Discrepancy> {
    let design = match scenario.build() {
        Ok(d) => d,
        Err(e) => {
            return vec![Discrepancy {
                kind: DiscrepancyKind::BuildFailed,
                detail: format!("scenario failed to build: {e}"),
            }]
        }
    };
    let mut out = Vec::new();
    let cfg = base_config(opts);

    // Witness feasibility: `Some(true)` means the full witness placement
    // still replays legally on the rebuilt design, `Some(false)` means the
    // scenario carries a witness but it is broken (a shrink edit trimmed
    // into it — the case is no longer known-feasible), `None` means no
    // witness is attached (corpus replays).
    let witness_ok = scenario.witness_positions(&design).map(|legal| {
        let mut st = PlacementState::new(&design);
        legal
            .into_iter()
            .all(|(id, p)| st.place(&design, id, p).is_ok())
    });

    // Sequential run: the reference all others are compared to.
    let mut base_state = PlacementState::new(&design);
    let base = Legalizer::new(cfg.clone()).legalize(&design, &mut base_state);
    let base_pos = match base {
        Err(e) => {
            if witness_ok == Some(false) {
                // The witness is broken, so feasibility is unproven and a
                // legalization failure proves nothing. Reached only by
                // shrink candidates; report as non-reproducing.
                out.push(Discrepancy {
                    kind: DiscrepancyKind::BuildFailed,
                    detail: "witness placement no longer legal on this scenario".into(),
                });
            } else {
                out.push(Discrepancy {
                    kind: DiscrepancyKind::LegalizeFailed,
                    detail: format!(
                        "witness guarantees feasibility, but: {e}{}",
                        e.cell()
                            .map(|c| format!(" (cell {})", design.cell(c).name()))
                            .unwrap_or_default()
                    ),
                });
            }
            return out; // nothing to compare against
        }
        Ok(_) => {
            if let Err(report) = check_legal(&design, &base_state, RailCheck::Enforce) {
                out.push(Discrepancy {
                    kind: DiscrepancyKind::IllegalResult,
                    detail: format!("sequential result: {report}"),
                });
            }
            positions_of(&design, &base_state)
        }
    };

    // Displacement bound from the witness, when one is attached and still
    // valid (a broken witness would make the bound meaningless).
    if let (Some(true), Some(witness_avg)) = (witness_ok, scenario.witness_avg_disp()) {
        let avg = avg_manhattan_disp(&design, &base_state);
        let limit = opts.disp_slack * witness_avg + opts.disp_slack;
        if avg > limit {
            out.push(Discrepancy {
                kind: DiscrepancyKind::DisplacementBound,
                detail: format!(
                    "avg displacement {avg:.3} exceeds {limit:.3} \
                     (witness avg {witness_avg:.3}, slack {})",
                    opts.disp_slack
                ),
            });
        }
    }

    // Thread invariance: the stripe driver for every configured count.
    for (run, &threads) in opts.threads.iter().enumerate() {
        let mut state = PlacementState::new(&design);
        match Legalizer::new(cfg.clone()).legalize_parallel(&design, &mut state, threads) {
            Err(e) => out.push(Discrepancy {
                kind: DiscrepancyKind::ThreadMismatch,
                detail: format!("parallel driver ({threads} threads) failed: {e}"),
            }),
            Ok(_) => {
                let mut pos = positions_of(&design, &state);
                if run == 0 && opts.fault == Some(Fault::ThreadOffByOne) {
                    if let Some(p) = pos.iter_mut().rev().find_map(|p| p.as_mut()) {
                        p.0 += 1; // the injected "realize shift" bug
                    }
                }
                if pos != base_pos {
                    out.push(Discrepancy {
                        kind: DiscrepancyKind::ThreadMismatch,
                        detail: format!(
                            "{threads} threads: {}",
                            first_difference(&design, &base_pos, &pos, 0)
                        ),
                    });
                }
            }
        }
    }

    // Rail-relaxed mode: independent run, checked with constraint 4 waived.
    {
        let mut state = PlacementState::new(&design);
        let relaxed = cfg.clone().with_rail_mode(PowerRailMode::Relaxed);
        match Legalizer::new(relaxed).legalize(&design, &mut state) {
            Err(e) => out.push(Discrepancy {
                kind: DiscrepancyKind::RelaxedFailed,
                detail: format!("relaxed-rail legalization failed: {e}"),
            }),
            Ok(_) => {
                if let Err(report) = check_legal(&design, &state, RailCheck::Ignore) {
                    out.push(Discrepancy {
                        kind: DiscrepancyKind::RelaxedIllegal,
                        detail: format!("relaxed result: {report}"),
                    });
                }
            }
        }
    }

    // Translation equivariance.
    if opts.translation_dx != 0 {
        let twin = scenario.translated(opts.translation_dx);
        match twin.build() {
            Err(e) => out.push(Discrepancy {
                kind: DiscrepancyKind::TranslationMismatch,
                detail: format!("translated twin failed to build: {e}"),
            }),
            Ok(tdesign) => {
                let mut state = PlacementState::new(&tdesign);
                match Legalizer::new(cfg.clone()).legalize(&tdesign, &mut state) {
                    Err(e) => out.push(Discrepancy {
                        kind: DiscrepancyKind::TranslationMismatch,
                        detail: format!("translated twin failed to legalize: {e}"),
                    }),
                    Ok(_) => {
                        let pos = positions_of(&tdesign, &state);
                        let shifted: Positions = base_pos
                            .iter()
                            .map(|p| p.map(|(x, y)| (x + opts.translation_dx, y)))
                            .collect();
                        if pos != shifted {
                            out.push(Discrepancy {
                                kind: DiscrepancyKind::TranslationMismatch,
                                detail: format!(
                                    "dx={}: {}",
                                    opts.translation_dx,
                                    first_difference(&design, &base_pos, &pos, opts.translation_dx)
                                ),
                            });
                        }
                    }
                }
            }
        }
    }

    // Baselines: allowed to fail, never allowed to lie.
    if opts.baselines {
        let rail = PowerRailMode::Aligned;
        let mut ab_state = PlacementState::new(&design);
        if AbacusLegalizer::with_rail_mode(rail)
            .legalize(&design, &mut ab_state)
            .is_ok()
        {
            if let Err(report) = check_legal(&design, &ab_state, RailCheck::Enforce) {
                out.push(Discrepancy {
                    kind: DiscrepancyKind::BaselineIllegal,
                    detail: format!("abacus claims success but: {report}"),
                });
            }
        }
        let mut tt_state = PlacementState::new(&design);
        if TetrisLegalizer::with_rail_mode(rail)
            .legalize(&design, &mut tt_state)
            .is_ok()
        {
            if let Err(report) = check_legal(&design, &tt_state, RailCheck::Enforce) {
                out.push(Discrepancy {
                    kind: DiscrepancyKind::BaselineIllegal,
                    detail: format!("tetris claims success but: {report}"),
                });
            }
        }
    }

    out
}

/// True when the scenario still exhibits a discrepancy of `kind` — the
/// shrinker's oracle. Runs the full matrix (cheap at shrunk sizes) so
/// kind-specific context is never lost.
pub fn reproduces(scenario: &Scenario, opts: &MatrixOptions, kind: DiscrepancyKind) -> bool {
    run_matrix(scenario, opts).iter().any(|d| d.kind == kind)
}

/// Runs the reference sequential configuration once and returns its
/// [`LegalizeStats`] — used by committed corpus fixtures that assert
/// *which* escalation tier solved them, not just that they replay clean.
///
/// # Errors
///
/// The scenario failing to rebuild or the legalizer failing to place
/// every cell, as a human-readable string.
pub fn run_stats(scenario: &Scenario, opts: &MatrixOptions) -> Result<LegalizeStats, String> {
    let design = scenario
        .build()
        .map_err(|e| format!("scenario failed to build: {e}"))?;
    let mut state = PlacementState::new(&design);
    Legalizer::new(base_config(opts))
        .legalize(&design, &mut state)
        .map_err(|e| format!("legalization failed: {e}"))
}

/// One diagnostic sequential run over a (typically shrunk) scenario,
/// summarized as `(fail_reasons, phase_totals)` strings for the corpus
/// `meta.txt`. Uses the traced driver so the failure-reason tallies and
/// phase spans survive even when the run itself errors out — which on a
/// shrunk reproducer is the expected case. `None` only when the scenario
/// no longer rebuilds into a design.
pub fn run_diagnostics(scenario: &Scenario, opts: &MatrixOptions) -> Option<(String, String)> {
    let design = scenario.build().ok()?;
    let mut state = PlacementState::new(&design);
    let mut ctx = LegalizeCtx::new();
    // The run is expected to fail on a shrunk reproducer; its statistics
    // survive in the context either way.
    let _ = Legalizer::new(base_config(opts)).legalize_with(&design, &mut state, &mut ctx);
    let stats = ctx.stats;
    let f = stats.fail_counts;
    let fail_reasons = format!(
        "no_insertion_point={} retry_budget_exhausted={} region_extraction_empty={} \
         escalation_exhausted={}",
        f.no_insertion_point,
        f.retry_budget_exhausted,
        f.region_extraction_empty,
        f.escalation_exhausted
    );
    let p = stats.phases;
    let e = stats.escalation;
    let phase_totals = format!(
        "extract={:.6}s enumerate={:.6}s evaluate={:.6}s realize={:.6}s retry={:.6}s \
         escalate={:.6}s escalation_engaged={} escalation_placed={}",
        p.extract.as_secs_f64(),
        p.enumerate.as_secs_f64(),
        p.evaluate.as_secs_f64(),
        p.realize.as_secs_f64(),
        p.retry.as_secs_f64(),
        p.escalate.as_secs_f64(),
        e.engaged,
        e.placed()
    );
    Some((fail_reasons, phase_totals))
}
