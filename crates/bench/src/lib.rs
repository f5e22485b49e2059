//! Experiment harness regenerating the paper's evaluation.
//!
//! The paper's evaluation is one big table (Table 1) — per benchmark:
//! average displacement in site widths, relative HPWL change, and runtime,
//! for the ILP baseline and for MLL ("Ours"), once with power-rail
//! alignment enforced and once relaxed — plus a prose experiment deriving
//! the rail-relaxation gains. This crate provides:
//!
//! * [`run_suite`] / [`run_benchmark`] — generate a synthetic clone of a
//!   Table 1 benchmark and run any [`Method`] on it, measuring the three
//!   reported quantities,
//! * [`table1_rows`] — format results like the paper's table,
//! * binaries `table1`, `power_relax`, and `ablation` (see `src/bin`),
//! * Criterion benches for the complexity claims (`benches/`).
//!
//! Absolute numbers differ from the paper (different global placer,
//! synthetic netlists, different machine); the comparisons the paper
//! makes — ILP slightly better displacement, MLL orders of magnitude
//! faster, small HPWL impact, relaxation helping displacement — are
//! reproduced. See `EXPERIMENTS.md` at the workspace root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use mrl_baselines::{AbacusLegalizer, IlpLegalizer, LocalSolver, TetrisLegalizer};
use mrl_db::{Design, PlacementState};
use mrl_legalize::{Legalizer, LegalizerConfig, PowerRailMode};
use mrl_metrics::{check_legal, displacement_stats, hpwl_change, RailCheck, Table};
use mrl_synth::{generate, BenchmarkSpec, GeneratorConfig};
use std::time::Instant;

pub mod json;
pub mod timer;

use json::Json;

/// Serialize a slice of [`BenchResult`]s as a JSON array (the `--json`
/// artifact of the `table1` bin).
pub fn results_to_json(results: &[BenchResult]) -> Json {
    Json::Arr(
        results
            .iter()
            .map(|r| {
                let mut o = Json::obj();
                o.set("name", r.name.clone())
                    .set("seed", r.seed)
                    .set("single_cells", r.single_cells)
                    .set("double_cells", r.double_cells)
                    .set("density", r.density)
                    .set("gp_hpwl_m", r.gp_hpwl_m)
                    .set(
                        "results",
                        Json::Arr(
                            r.results
                                .iter()
                                .map(|m| {
                                    let mut mo = Json::obj();
                                    mo.set("method", m.method.label())
                                        .set("aligned", m.aligned)
                                        .set("disp_sites", m.disp_sites)
                                        .set("hpwl_delta", m.hpwl_delta)
                                        .set("runtime_s", m.runtime_s)
                                        .set("legal", m.legal)
                                        .set("failed", m.failed);
                                    mo
                                })
                                .collect(),
                        ),
                    );
                o
            })
            .collect(),
    )
}

/// A legalization method under measurement.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Method {
    /// The paper's MLL algorithm (approximate evaluation, the default).
    Mll,
    /// The ILP-optimal baseline via exhaustive-exact local solves (same
    /// optimum as the MILP, practical at scale).
    IlpOracle,
    /// The ILP-optimal baseline via the actual MILP solver (slow;
    /// faithful to the paper's `lpsolve` setup).
    IlpMilp,
    /// Abacus two-step baseline.
    Abacus,
    /// Greedy Tetris baseline.
    Tetris,
}

impl Method {
    /// Short label used in tables.
    pub fn label(self) -> &'static str {
        match self {
            Method::Mll => "Ours",
            Method::IlpOracle => "ILP",
            Method::IlpMilp => "ILP(milp)",
            Method::Abacus => "Abacus",
            Method::Tetris => "Tetris",
        }
    }
}

/// Result of one (benchmark, method, rail-mode) measurement.
#[derive(Clone, Debug)]
pub struct MethodResult {
    /// Method measured.
    pub method: Method,
    /// Rail mode used.
    pub aligned: bool,
    /// Average displacement in site widths (Table 1 "Disp. (sites)").
    pub disp_sites: f64,
    /// Relative HPWL change vs the GP input (Table 1 "ΔHPWL").
    pub hpwl_delta: f64,
    /// Wall-clock legalization runtime in seconds.
    pub runtime_s: f64,
    /// Whether the result passed the independent legality checker.
    pub legal: bool,
    /// Whether the method failed to place every cell.
    pub failed: bool,
}

/// One benchmark row: design statistics plus per-method results.
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// Benchmark name.
    pub name: String,
    /// Generator / legalizer seed the measurements were taken with. Always
    /// recorded in emitted JSON so every artifact is replayable.
    pub seed: u64,
    /// Single-row cells in the generated clone.
    pub single_cells: usize,
    /// Double-row cells in the generated clone.
    pub double_cells: usize,
    /// Density of the generated clone.
    pub density: f64,
    /// HPWL of the synthetic GP input, in meters.
    pub gp_hpwl_m: f64,
    /// Measurements.
    pub results: Vec<MethodResult>,
}

/// Harness configuration.
#[derive(Clone, Debug)]
pub struct HarnessConfig {
    /// Benchmark scale divisor (1.0 = paper-sized designs).
    pub scale: f64,
    /// Generator / legalizer seed.
    pub seed: u64,
    /// Methods to run.
    pub methods: Vec<Method>,
    /// Rail modes to run (true = aligned).
    pub rail_modes: Vec<bool>,
    /// Skip `IlpMilp` on designs with more movable cells than this (the
    /// MILP engine is faithful but very slow, like the paper's 185×).
    pub ilp_milp_max_cells: usize,
    /// Fence regions per generated design (extension experiments).
    pub fence_regions: usize,
    /// Fraction of 3–4-row tall cells (extension experiments).
    pub tall_fraction: f64,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        Self {
            scale: 1.0,
            seed: 1,
            methods: vec![Method::IlpOracle, Method::Mll],
            rail_modes: vec![true, false],
            ilp_milp_max_cells: 3_000,
            fence_regions: 0,
            tall_fraction: 0.0,
        }
    }
}

/// Runs one method on a fresh placement of `design`.
pub fn run_method(design: &Design, method: Method, aligned: bool, seed: u64) -> MethodResult {
    let rail_mode = if aligned {
        PowerRailMode::Aligned
    } else {
        PowerRailMode::Relaxed
    };
    let cfg = LegalizerConfig::default()
        .with_rail_mode(rail_mode)
        .with_seed(seed);
    let mut state = PlacementState::new(design);
    let start = Instant::now();
    let outcome = match method {
        Method::Mll => Legalizer::new(cfg).legalize(design, &mut state),
        Method::IlpOracle => {
            IlpLegalizer::new(cfg, LocalSolver::ExhaustiveExact).legalize(design, &mut state)
        }
        Method::IlpMilp => IlpLegalizer::new(cfg, LocalSolver::Milp).legalize(design, &mut state),
        Method::Abacus => AbacusLegalizer::with_rail_mode(rail_mode).legalize(design, &mut state),
        Method::Tetris => TetrisLegalizer::with_rail_mode(rail_mode).legalize(design, &mut state),
    };
    let runtime_s = start.elapsed().as_secs_f64();
    let failed = outcome.is_err();
    let rails = if aligned {
        RailCheck::Enforce
    } else {
        RailCheck::Ignore
    };
    let legal = !failed && check_legal(design, &state, rails).is_ok();
    let disp = displacement_stats(design, &state);
    let hpwl = hpwl_change(design, &state);
    MethodResult {
        method,
        aligned,
        disp_sites: disp.avg_sites,
        hpwl_delta: hpwl.delta(),
        runtime_s,
        legal,
        failed,
    }
}

/// Generates the synthetic clone of `spec` and measures every configured
/// method/rail-mode combination.
pub fn run_benchmark(spec: &BenchmarkSpec, cfg: &HarnessConfig) -> BenchResult {
    let gen_cfg = GeneratorConfig::default()
        .with_scale(cfg.scale)
        .with_seed(cfg.seed)
        .with_fence_regions(cfg.fence_regions)
        .with_tall_cells(cfg.tall_fraction);
    let design = generate(spec, &gen_cfg).expect("generation cannot fail for suite specs");
    let singles = design
        .movable_cells()
        .filter(|&c| design.cell(c).height() == 1)
        .count();
    let doubles = design.num_movable() - singles;
    let gp_hpwl_m = mrl_metrics::hpwl_of_input(&design) * 1e-6;
    let mut results = Vec::new();
    for &aligned in &cfg.rail_modes {
        for &method in &cfg.methods {
            if method == Method::IlpMilp && design.num_movable() > cfg.ilp_milp_max_cells {
                continue;
            }
            results.push(run_method(&design, method, aligned, cfg.seed));
        }
    }
    BenchResult {
        name: spec.name.clone(),
        seed: cfg.seed,
        single_cells: singles,
        double_cells: doubles,
        density: design.density(),
        gp_hpwl_m,
        results,
    }
}

/// Runs the harness over a list of specs.
pub fn run_suite(specs: &[BenchmarkSpec], cfg: &HarnessConfig) -> Vec<BenchResult> {
    specs.iter().map(|s| run_benchmark(s, cfg)).collect()
}

/// Formats results like the paper's Table 1: one row per benchmark, one
/// column group per (method, rail-mode).
pub fn table1_rows(results: &[BenchResult], methods: &[Method], aligned: bool) -> Table {
    let mut header: Vec<String> = vec![
        "Benchmark".into(),
        "#S.Cell".into(),
        "#D.Cell".into(),
        "Density".into(),
        "GP HPWL(m)".into(),
    ];
    for m in methods {
        header.push(format!("Disp {}", m.label()));
        header.push(format!("dHPWL {}", m.label()));
        header.push(format!("Time(s) {}", m.label()));
    }
    let headers: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = Table::new(&headers);
    let mut sums: Vec<(f64, f64, f64, usize)> = vec![(0.0, 0.0, 0.0, 0); methods.len()];
    for r in results {
        let mut row: Vec<String> = vec![
            r.name.clone(),
            r.single_cells.to_string(),
            r.double_cells.to_string(),
            format!("{:.2}", r.density),
            format!("{:.3}", r.gp_hpwl_m),
        ];
        for (mi, m) in methods.iter().enumerate() {
            match r
                .results
                .iter()
                .find(|x| x.method == *m && x.aligned == aligned)
            {
                Some(x) if !x.failed => {
                    row.push(format!("{:.2}", x.disp_sites));
                    row.push(format!("{:.2}%", x.hpwl_delta * 100.0));
                    row.push(format!("{:.1}", x.runtime_s));
                    let s = &mut sums[mi];
                    s.0 += x.disp_sites;
                    s.1 += x.hpwl_delta;
                    s.2 += x.runtime_s;
                    s.3 += 1;
                }
                Some(_) => {
                    row.push("fail".into());
                    row.push("fail".into());
                    row.push("fail".into());
                }
                None => {
                    row.push("-".into());
                    row.push("-".into());
                    row.push("-".into());
                }
            }
        }
        table.row(&row);
    }
    // Averages row, as in the paper.
    let mut avg: Vec<String> = vec!["Avg.".into(), "".into(), "".into(), "".into(), "".into()];
    for (d, h, t, n) in &sums {
        if *n > 0 {
            avg.push(format!("{:.2}", d / *n as f64));
            avg.push(format!("{:.2}%", h / *n as f64 * 100.0));
            avg.push(format!("{:.1}", t / *n as f64));
        } else {
            avg.push("-".into());
            avg.push("-".into());
            avg.push("-".into());
        }
    }
    table.row(&avg);
    // Normalized averages ("N. Avg." in the paper): each method's metric
    // relative to the last listed method (the paper normalizes to "Ours").
    if let Some((bd, bh, bt, bn)) = sums.last().copied() {
        if bn > 0 {
            let mut norm: Vec<String> =
                vec!["N.Avg.".into(), "".into(), "".into(), "".into(), "".into()];
            let base = (bd / bn as f64, bh / bn as f64, bt / bn as f64);
            for (d, h, t, n) in &sums {
                if *n > 0 {
                    let ratio = |v: f64, b: f64| {
                        if b.abs() > 1e-12 {
                            format!("{:.2}", v / b)
                        } else {
                            "-".into()
                        }
                    };
                    norm.push(ratio(d / *n as f64, base.0));
                    norm.push(ratio((h / *n as f64).abs(), base.1.abs()));
                    norm.push(ratio(t / *n as f64, base.2));
                } else {
                    norm.push("-".into());
                    norm.push("-".into());
                    norm.push("-".into());
                }
            }
            table.row(&norm);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_method_measures_mll() {
        let spec = BenchmarkSpec::new("harness_test", 200, 20, 0.5, 0.0);
        let design = generate(&spec, &GeneratorConfig::default()).unwrap();
        let r = run_method(&design, Method::Mll, true, 1);
        assert!(!r.failed);
        assert!(r.legal);
        assert!(r.disp_sites >= 0.0);
        assert!(r.runtime_s >= 0.0);
    }

    #[test]
    fn run_benchmark_covers_requested_methods() {
        let spec = BenchmarkSpec::new("harness_bm", 150, 15, 0.4, 0.0);
        let cfg = HarnessConfig {
            methods: vec![Method::Mll, Method::IlpOracle],
            rail_modes: vec![true],
            ..HarnessConfig::default()
        };
        let r = run_benchmark(&spec, &cfg);
        assert_eq!(r.results.len(), 2);
        assert!(r.results.iter().all(|x| x.legal));
    }

    #[test]
    fn milp_skipped_over_size_cap() {
        let spec = BenchmarkSpec::new("harness_cap", 150, 15, 0.4, 0.0);
        let cfg = HarnessConfig {
            methods: vec![Method::IlpMilp],
            rail_modes: vec![true],
            ilp_milp_max_cells: 10,
            ..HarnessConfig::default()
        };
        let r = run_benchmark(&spec, &cfg);
        assert!(r.results.is_empty());
    }

    #[test]
    fn json_artifact_records_the_seed() {
        let spec = BenchmarkSpec::new("harness_seed", 120, 12, 0.4, 0.0);
        let cfg = HarnessConfig {
            methods: vec![Method::Mll],
            rail_modes: vec![true],
            seed: 42,
            ..HarnessConfig::default()
        };
        let results = run_suite(&[spec], &cfg);
        assert_eq!(results[0].seed, 42);
        let json = results_to_json(&results).pretty();
        assert!(json.contains("\"seed\": 42"), "{json}");
    }

    #[test]
    fn table_renders_rows_and_average() {
        let spec = BenchmarkSpec::new("harness_tbl", 120, 12, 0.4, 0.0);
        let cfg = HarnessConfig {
            methods: vec![Method::Mll],
            rail_modes: vec![true],
            ..HarnessConfig::default()
        };
        let results = run_suite(&[spec], &cfg);
        let t = table1_rows(&results, &[Method::Mll], true);
        let s = t.to_string();
        assert!(s.contains("harness_tbl"));
        assert!(s.contains("Avg."));
        assert!(s.contains("N.Avg."));
        assert!(s.contains("Disp Ours"));
    }
}
