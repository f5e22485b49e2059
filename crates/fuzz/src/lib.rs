//! Differential fuzzing harness for the multi-row legalizer.
//!
//! Classic fuzzing of a legalizer has an oracle problem: when legalization
//! fails, was the instance infeasible or the algorithm wrong? This harness
//! sidesteps it with *witness-based* generation — every instance is grown
//! from a packed legal placement ([`mrl_synth::generate_witness`]) and then
//! perturbed, so legalizability is guaranteed by construction and any
//! failure is a real bug.
//!
//! Each iteration derives a case seed from the master seed (splitmix64, so
//! `--seed N` replays bit-identically), synthesizes a witness with randomly
//! varied shape parameters, and runs the invariant matrix of
//! [`matrix::run_matrix`]: independent legality checking, thread
//! invariance, displacement bounds, x-translation equivariance, and
//! baseline cross-validation. A discrepancy triggers the ddmin-style
//! [`shrink::shrink`] reducer, and the minimal scenario is written to a
//! corpus directory as a Bookshelf reproducer that `tests/corpus.rs`
//! replays forever after.

#![forbid(unsafe_code)]

pub mod eco;
pub mod matrix;
pub mod scenario;
pub mod shrink;

pub use eco::{generate_stream, run_eco_case, shrink_stream, EcoStreamConfig};
pub use matrix::{run_matrix, run_stats, DiscrepancyKind, Fault, MatrixOptions};
pub use scenario::{Scenario, ScenarioCell};
pub use shrink::{shrink, ShrinkStats};

use mrl_bench::json::Json;
use mrl_legalize::CellOrder;
use mrl_synth::{generate_witness, WitnessConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The generator regime: how hard the synthesized cases lean on the
/// legalizer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Regime {
    /// The heuristic-complete envelope: utilization 0.5–0.78 and
    /// area-descending visit order, where MLL plus random-offset retries
    /// alone place everything. This is the historical regime; escalation
    /// never engages here, so results are bit-identical with tiers off.
    #[default]
    Baseline,
    /// The escalated envelope: utilization 0.80–0.92 and per-case visit
    /// orders beyond area-descending (by-x, input order). Cases in this
    /// regime routinely exceed what the bare heuristic can place and rely
    /// on the escalation ladder for 100% placement; the matrix gets a
    /// wider displacement allowance since ripple/repack moves placed
    /// cells.
    Dense,
    /// The incremental envelope: moderate utilization (0.45–0.70) so edit
    /// streams have room to commit, plus a generated batch stream run
    /// through [`eco::run_eco_case`]'s four oracles (incremental legality,
    /// thread bit-identity, rollback bit-exactness, full re-legalization)
    /// instead of the static invariant matrix. Shrinking reduces the
    /// *stream*, not the scenario.
    Eco,
}

impl Regime {
    /// Stable lower-snake slug for corpus metadata.
    pub fn slug(self) -> &'static str {
        match self {
            Regime::Baseline => "baseline",
            Regime::Dense => "dense",
            Regime::Eco => "eco",
        }
    }

    /// Parses a slug back (corpus replay).
    pub fn from_slug(s: &str) -> Option<Self> {
        [Regime::Baseline, Regime::Dense, Regime::Eco]
            .into_iter()
            .find(|r| r.slug() == s)
    }

    /// The displacement-slack factor this regime grants the matrix.
    fn disp_slack(self) -> f64 {
        match self {
            Regime::Baseline => 4.0,
            Regime::Dense | Regime::Eco => 8.0,
        }
    }
}

/// Stable slug for a cell visit order (corpus metadata).
pub fn order_slug(order: CellOrder) -> &'static str {
    match order {
        CellOrder::Input => "input",
        CellOrder::ByX => "by_x",
        CellOrder::ByAreaDesc => "by_area_desc",
        CellOrder::Shuffled => "shuffled",
    }
}

/// Parses a visit-order slug back (corpus replay).
pub fn order_from_slug(s: &str) -> Option<CellOrder> {
    [
        CellOrder::Input,
        CellOrder::ByX,
        CellOrder::ByAreaDesc,
        CellOrder::Shuffled,
    ]
    .into_iter()
    .find(|&o| order_slug(o) == s)
}

/// Configuration of one fuzzing campaign. The seed is mandatory
/// (deterministic replay is the whole point); everything else has
/// defaults sized for a CI smoke run.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Master seed; case `i` uses `splitmix64(seed, i)`.
    pub seed: u64,
    /// Number of cases to run (a time budget can stop earlier).
    pub iters: u32,
    /// Upper bound on cells per synthesized case.
    pub max_cells: usize,
    /// Wall-clock budget; `None` runs all `iters`.
    pub time_budget: Option<Duration>,
    /// Where minimal reproducers are written; `None` disables writing.
    pub corpus_dir: Option<PathBuf>,
    /// Oracle-call budget per shrink.
    pub shrink_budget: u32,
    /// Injected fault for harness self-tests (`--inject-bug`).
    pub fault: Option<Fault>,
    /// Cross-check the Abacus/Tetris baselines.
    pub baselines: bool,
    /// Generator regime (utilization envelope and visit orders).
    pub regime: Regime,
}

impl FuzzConfig {
    /// Defaults around an explicit master seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            iters: 50,
            max_cells: 120,
            time_budget: None,
            corpus_dir: None,
            shrink_budget: 400,
            fault: None,
            baselines: true,
            regime: Regime::Baseline,
        }
    }

    /// Returns `self` with the iteration count replaced.
    pub fn with_iters(mut self, iters: u32) -> Self {
        self.iters = iters;
        self
    }

    /// Returns `self` with the per-case cell cap replaced.
    pub fn with_max_cells(mut self, max_cells: usize) -> Self {
        self.max_cells = max_cells.max(12);
        self
    }

    /// Returns `self` with a wall-clock budget.
    pub fn with_time_budget(mut self, budget: Duration) -> Self {
        self.time_budget = Some(budget);
        self
    }

    /// Returns `self` writing reproducers under `dir`.
    pub fn with_corpus_dir(mut self, dir: PathBuf) -> Self {
        self.corpus_dir = Some(dir);
        self
    }

    /// Returns `self` with an injected fault (harness self-test).
    pub fn with_fault(mut self, fault: Fault) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Returns `self` with the generator regime replaced.
    pub fn with_regime(mut self, regime: Regime) -> Self {
        self.regime = regime;
        self
    }

    /// Returns `self` with the per-failure shrink budget replaced (0
    /// skips shrinking — useful for self-tests that only count failures).
    pub fn with_shrink_budget(mut self, budget: u32) -> Self {
        self.shrink_budget = budget;
        self
    }
}

/// One failing case, after shrinking.
#[derive(Clone, Debug)]
pub struct CaseFailure {
    /// Case index within the campaign.
    pub case: u32,
    /// The derived case seed (replays via `WitnessConfig::new(seed)` with
    /// the recorded shape).
    pub case_seed: u64,
    /// First (most fundamental) discrepancy kind.
    pub kind: DiscrepancyKind,
    /// All discrepancy messages from the unshrunk run.
    pub details: Vec<String>,
    /// The minimal scenario.
    pub shrunk: Scenario,
    /// Shrink effort counters.
    pub stats: ShrinkStats,
    /// Corpus directory the reproducer was written to, if any.
    pub corpus_path: Option<PathBuf>,
}

/// Campaign summary.
#[derive(Clone, Debug)]
pub struct FuzzReport {
    /// Master seed (recorded so artifacts are self-describing).
    pub seed: u64,
    /// Cases actually run.
    pub cases_run: u32,
    /// Cases requested.
    pub cases_requested: u32,
    /// Total cells across all cases (coverage indicator).
    pub total_cells: u64,
    /// Total edit batches applied across all cases (eco regime only;
    /// zero elsewhere).
    pub total_batches: u64,
    /// Wall-clock time spent.
    pub elapsed: Duration,
    /// True when the time budget stopped the campaign early.
    pub hit_time_budget: bool,
    /// Every failing case.
    pub failures: Vec<CaseFailure>,
}

impl FuzzReport {
    /// True when no case produced a discrepancy.
    pub fn clean(&self) -> bool {
        self.failures.is_empty()
    }

    /// Machine-readable artifact (every seed recorded for replay).
    pub fn to_json(&self) -> Json {
        let mut j = Json::obj();
        j.set("seed", self.seed);
        j.set("cases_run", self.cases_run);
        j.set("cases_requested", self.cases_requested);
        j.set("total_cells", self.total_cells as i64);
        j.set("total_batches", self.total_batches as i64);
        j.set("elapsed_ms", self.elapsed.as_millis() as i64);
        j.set("hit_time_budget", self.hit_time_budget);
        let failures: Vec<Json> = self
            .failures
            .iter()
            .map(|f| {
                let mut o = Json::obj();
                o.set("case", f.case);
                o.set("case_seed", f.case_seed);
                o.set("kind", f.kind.slug());
                o.set(
                    "details",
                    Json::Arr(f.details.iter().map(|d| Json::Str(d.clone())).collect()),
                );
                o.set("shrunk_cells", f.shrunk.cells.len());
                o.set("oracle_calls", f.stats.oracle_calls);
                o.set(
                    "corpus_path",
                    f.corpus_path
                        .as_ref()
                        .map(|p| Json::Str(p.display().to_string()))
                        .unwrap_or(Json::Null),
                );
                o
            })
            .collect();
        j.set("failures", Json::Arr(failures));
        j
    }

    /// Human-readable one-screen summary.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "fuzz: {} cases ({} requested), {} cells{}, {:.1}s{}",
            self.cases_run,
            self.cases_requested,
            self.total_cells,
            if self.total_batches > 0 {
                format!(", {} edit batches", self.total_batches)
            } else {
                String::new()
            },
            self.elapsed.as_secs_f64(),
            if self.hit_time_budget {
                " [time budget]"
            } else {
                ""
            },
        );
        if self.clean() {
            let _ = writeln!(s, "fuzz: no discrepancies (seed {})", self.seed);
        } else {
            for f in &self.failures {
                let _ = writeln!(
                    s,
                    "fuzz: case {} (seed {}) FAILED: {} — shrunk to {} cells{}",
                    f.case,
                    f.case_seed,
                    f.kind,
                    f.shrunk.cells.len(),
                    f.corpus_path
                        .as_ref()
                        .map(|p| format!(", reproducer at {}", p.display()))
                        .unwrap_or_default(),
                );
            }
        }
        s
    }
}

/// splitmix64 — the standard seed-stream derivation, so case seeds are
/// decorrelated even for adjacent master seeds.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Varies the witness shape per case so the campaign covers sparse and
/// dense, flat and tall, open and macro-blocked instances. The regime
/// picks the utilization envelope: the baseline band is what the bare
/// heuristic handles, the dense band requires the escalation ladder.
fn case_config(
    case_seed: u64,
    max_cells: usize,
    regime: Regime,
    rng: &mut SmallRng,
) -> WitnessConfig {
    let utilization = match regime {
        Regime::Baseline => rng.gen_range(0.5..=0.78),
        Regime::Dense => rng.gen_range(0.80..=0.92),
        // Edit streams insert and widen cells, so the base design leaves
        // headroom; inserts into a near-full floorplan would mostly reject.
        Regime::Eco => rng.gen_range(0.45..=0.70),
    };
    let mut cfg = WitnessConfig::new(case_seed)
        .with_cells(rng.gen_range(12..=max_cells))
        .with_utilization(utilization)
        .with_shift(f64::from(rng.gen_range(1i32..=5)), rng.gen_range(0.5..=2.0));
    cfg.double_fraction = rng.gen_range(0.05..=0.30);
    cfg.tall_fraction = if rng.gen_bool(0.2) {
        rng.gen_range(0.05..=0.15)
    } else {
        0.0
    };
    if rng.gen_bool(0.5) {
        cfg = cfg.with_macros(rng.gen_range(1usize..=3));
    }
    cfg
}

/// Per-case visit order. The baseline regime pins the area-descending
/// order its completeness guarantee is stated for; the dense regime also
/// samples the orders that deadlock the bare heuristic at high
/// utilization, because the escalation ladder must make them complete.
fn case_order(regime: Regime, rng: &mut SmallRng) -> CellOrder {
    match regime {
        Regime::Baseline | Regime::Eco => CellOrder::ByAreaDesc,
        Regime::Dense => match rng.gen_range(0u8..3) {
            0 => CellOrder::ByAreaDesc,
            1 => CellOrder::ByX,
            _ => CellOrder::Input,
        },
    }
}

/// Runs a fuzzing campaign.
pub fn fuzz(cfg: &FuzzConfig) -> FuzzReport {
    let start = Instant::now();
    let mut report = FuzzReport {
        seed: cfg.seed,
        cases_run: 0,
        cases_requested: cfg.iters,
        total_cells: 0,
        total_batches: 0,
        elapsed: Duration::ZERO,
        hit_time_budget: false,
        failures: Vec::new(),
    };
    for case in 0..cfg.iters {
        if let Some(budget) = cfg.time_budget {
            if start.elapsed() >= budget {
                report.hit_time_budget = true;
                break;
            }
        }
        let case_seed = splitmix64(cfg.seed.wrapping_add(u64::from(case)));
        let mut rng = SmallRng::seed_from_u64(case_seed);
        let wcfg = case_config(case_seed, cfg.max_cells, cfg.regime, &mut rng);
        let order = case_order(cfg.regime, &mut rng);
        let witness = match generate_witness(&wcfg) {
            Ok(w) => w,
            Err(e) => {
                // Generator bugs are harness bugs; surface them loudly.
                panic!("witness generation failed for seed {case_seed}: {e}");
            }
        };
        let scenario = Scenario::from_witness(&witness);
        report.total_cells += scenario.cells.len() as u64;
        let mut opts = MatrixOptions::new(case_seed);
        opts.baselines = cfg.baselines;
        opts.fault = cfg.fault;
        opts.order = order;
        opts.disp_slack = cfg.regime.disp_slack();
        // The eco regime runs a generated edit stream through the
        // incremental-engine oracles; the static regimes run the matrix.
        let stream = if cfg.regime == Regime::Eco {
            let design = scenario
                .build()
                .unwrap_or_else(|e| panic!("witness scenario failed to build: {e}"));
            let mut scfg = eco::EcoStreamConfig::new(case_seed);
            scfg.batches = rng.gen_range(8..=16);
            Some(eco::generate_stream(&design, &scfg))
        } else {
            None
        };
        let discrepancies = match &stream {
            Some(stream) => {
                report.total_batches += stream.len() as u64;
                eco::run_eco_case(&scenario, stream, &opts)
            }
            None => run_matrix(&scenario, &opts),
        };
        report.cases_run += 1;
        if discrepancies.is_empty() {
            continue;
        }
        let kind = discrepancies[0].kind;
        // Static regimes shrink the scenario; the eco regime holds the
        // scenario fixed and ddmins the stream instead (scenario edits
        // would invalidate the stream's cell references).
        let (shrunk, stats, shrunk_stream) = match &stream {
            Some(stream) => {
                let (small, stats) =
                    eco::shrink_stream(&scenario, stream, &opts, kind, cfg.shrink_budget);
                (scenario.clone(), stats, Some(small))
            }
            None => {
                let (shrunk, stats) = shrink(&scenario, &opts, kind, cfg.shrink_budget);
                (shrunk, stats, None)
            }
        };
        let corpus_path = cfg.corpus_dir.as_ref().and_then(|root| {
            let dir = root.join(format!("case_{case_seed:016x}_{}", kind.slug()));
            std::fs::create_dir_all(&dir).ok()?;
            let mut meta = vec![
                ("kind", kind.slug().to_string()),
                ("master_seed", cfg.seed.to_string()),
                ("case_seed", case_seed.to_string()),
                ("legalizer_seed", opts.legalizer_seed.to_string()),
                ("regime", cfg.regime.slug().to_string()),
                ("order", order_slug(opts.order).to_string()),
                ("detail", discrepancies[0].detail.clone()),
            ];
            if let Some(small) = &shrunk_stream {
                meta.push(("batches", small.len().to_string()));
                std::fs::write(
                    dir.join("stream.ndjson"),
                    mrl_eco::stream::stream_to_ndjson(small),
                )
                .ok()?;
            } else {
                // Failure-reason histogram and per-phase span totals of one
                // sequential run over the shrunk scenario — triage context
                // for whoever opens the reproducer.
                if let Some((fail_reasons, phase_totals)) = matrix::run_diagnostics(&shrunk, &opts)
                {
                    meta.push(("fail_reasons", fail_reasons));
                    meta.push(("phase_totals", phase_totals));
                }
            }
            shrunk.write_corpus(&dir, &meta).ok()?;
            Some(dir)
        });
        report.failures.push(CaseFailure {
            case,
            case_seed,
            kind,
            details: discrepancies.iter().map(|d| d.to_string()).collect(),
            shrunk,
            stats,
            corpus_path,
        });
    }
    report.elapsed = start.elapsed();
    report
}

/// Rebuilds a corpus fixture's scenario plus the [`MatrixOptions`] its
/// `meta.txt` records (seed, regime, visit order). Faults are never
/// re-injected: a committed reproducer must encode a *real* failure, and
/// fault-injected fixtures are filtered out before commit (see
/// `mrl fuzz --inject-bug` docs).
fn read_corpus_scenario(
    dir: &std::path::Path,
) -> Result<(Scenario, MatrixOptions, Option<Regime>), String> {
    let (scenario, meta) = Scenario::read_corpus(dir)?;
    let lookup = |k: &str| meta.iter().find(|(mk, _)| mk == k).map(|(_, v)| v.clone());
    let legalizer_seed = lookup("legalizer_seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    let mut opts = MatrixOptions::new(legalizer_seed);
    // Honor the recorded regime and visit order so the reproducer replays
    // under the configuration that originally failed.
    let regime = lookup("regime").and_then(|v| Regime::from_slug(&v));
    if let Some(regime) = regime {
        opts.disp_slack = regime.disp_slack();
    }
    if let Some(order) = lookup("order").and_then(|v| order_from_slug(&v)) {
        opts.order = order;
    }
    opts.fault = None;
    Ok((scenario, opts, regime))
}

/// Replays one corpus fixture with the reference sequential configuration
/// and returns the run's [`mrl_legalize::LegalizeStats`] — the escalation
/// counters let fixture tests assert which tier a reproducer exercises.
///
/// # Errors
///
/// Fixture parsing problems, or the legalizer failing to place every cell.
pub fn replay_corpus_stats(dir: &std::path::Path) -> Result<mrl_legalize::LegalizeStats, String> {
    let (scenario, opts, _) = read_corpus_scenario(dir)?;
    run_stats(&scenario, &opts)
}

/// Replays one corpus fixture directory: rebuilds the scenario and runs the
/// full matrix with the recorded legalizer seed, with no fault injected.
/// Returns the discrepancies (empty = the bug is fixed / stays fixed).
///
/// # Errors
///
/// Fixture parsing problems (not discrepancies).
pub fn replay_corpus_case(dir: &std::path::Path) -> Result<Vec<matrix::Discrepancy>, String> {
    let (scenario, opts, regime) = read_corpus_scenario(dir)?;
    // Eco fixtures replay their recorded edit stream through the
    // incremental-engine oracles instead of the static matrix.
    if regime == Some(Regime::Eco) {
        let text = std::fs::read_to_string(dir.join("stream.ndjson"))
            .map_err(|e| format!("stream.ndjson: {e}"))?;
        let stream = mrl_eco::stream::parse_stream(&text)?;
        return Ok(eco::run_eco_case(&scenario, &stream, &opts));
    }
    // Corpus reloads have no witness, so the displacement bound and
    // witness-feasibility reasoning still hold (the design was legal when
    // captured); kinds that need the witness simply cannot re-fire, which
    // is fine — replay guards against regressions of checkable kinds.
    Ok(run_matrix(&scenario, &opts))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_stable() {
        // Known-answer test so corpus names stay stable across refactors.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_ne!(splitmix64(1), splitmix64(2));
    }

    #[test]
    fn small_campaign_is_clean_and_deterministic() {
        let cfg = FuzzConfig::new(7).with_iters(4).with_max_cells(40);
        let a = fuzz(&cfg);
        let b = fuzz(&cfg);
        assert!(a.clean(), "unexpected failures:\n{}", a.summary());
        assert_eq!(a.cases_run, 4);
        assert_eq!(
            a.total_cells, b.total_cells,
            "campaign must be deterministic"
        );
    }

    /// A directory under the system temp dir, removed on drop — also when
    /// the test panics.
    struct TmpDir(std::path::PathBuf);

    impl Drop for TmpDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn injected_fault_is_caught_shrunk_and_written() {
        let dir = TmpDir(std::env::temp_dir().join(format!("mrl_fuzz_lib_{}", std::process::id())));
        let _ = std::fs::remove_dir_all(&dir.0);
        let cfg = FuzzConfig::new(1)
            .with_iters(1)
            .with_max_cells(40)
            .with_fault(Fault::ThreadOffByOne)
            .with_corpus_dir(dir.0.clone());
        let report = fuzz(&cfg);
        assert_eq!(report.failures.len(), 1, "{}", report.summary());
        let f = &report.failures[0];
        assert_eq!(f.kind, DiscrepancyKind::ThreadMismatch);
        assert!(f.shrunk.cells.len() <= 12);
        let path = f.corpus_path.as_ref().expect("reproducer written");
        assert!(path.join("repro.aux").exists());
        assert!(path.join("meta.txt").exists());
        // The JSON artifact records the seeds.
        let json = report.to_json().pretty();
        assert!(json.contains("case_seed"));
        assert!(json.contains("thread_mismatch"));
    }
}
