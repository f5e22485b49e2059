//! The `mrl` command-line tool: drive the whole workspace from benchmark
//! files.
//!
//! ```text
//! mrl generate --bench fft_2 --scale 20 --out DIR [--format bookshelf|lefdef]
//! mrl legalize (--aux F | --lef F --def F) [--relaxed] [--exact]
//!              [--rx N --ry N] [--threads N] [--refine] [--detail N]
//!              [--out DIR] [--svg FILE] [--trace FILE] [--metrics-json FILE]
//! mrl report   --metrics-json FILE [--svg FILE]
//! mrl gp       (--aux F | --lef F --def F) --out DIR [--iterations N]
//! mrl check    (--aux F | --lef F --def F) [--relaxed]
//! mrl stats    (--aux F | --lef F --def F)
//! mrl convert  (--aux F | --lef F --def F) --out DIR --format bookshelf|lefdef
//! mrl fuzz     [--seed S] [--iters N] [--cells N] [--time-budget T]
//!              [--corpus DIR] [--json FILE] [--inject-bug]
//! mrl serve    (--aux F | --lef F --def F) [--input FILE] [--listen ADDR]
//!              [--metrics-addr ADDR] [--stats-every N] [--metrics-json FILE]
//!              [--check] [--budget N]
//! ```
//!
//! The library surface ([`run`]) takes the argument vector and returns the
//! textual report, so every subcommand is integration-testable without
//! spawning processes; `src/bin/mrl.rs` is a thin wrapper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use mrl_bench::json::Json;
use mrl_db::{Design, PlacementState};
use mrl_gp::{GlobalPlacer, GpConfig};
use mrl_legalize::{
    refine_rows, DetailedConfig, DetailedPlacer, EscalationCounters, EvalMode, FailReason,
    LegalizeCtx, Legalizer, LegalizerConfig, Phase, PowerRailMode, TraceBuf,
};
use mrl_metrics::{
    check_legal, displacement_stats, hpwl_change, render_svg, RailCheck, SvgOptions,
};
use mrl_parsers::{bookshelf, lefdef};
use mrl_synth::{generate, ispd2015_suite, GeneratorConfig};
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

/// CLI failure: message plus suggested exit code.
#[derive(Debug)]
pub struct CliError {
    /// Human-readable message.
    pub message: String,
    /// Process exit code to use.
    pub code: i32,
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

fn fail(message: impl Into<String>) -> CliError {
    CliError {
        message: message.into(),
        code: 2,
    }
}

/// Parsed common options.
#[derive(Default, Debug)]
struct Opts {
    aux: Option<PathBuf>,
    lef: Option<PathBuf>,
    def: Option<PathBuf>,
    out: Option<PathBuf>,
    svg: Option<PathBuf>,
    format: Option<String>,
    bench: Option<String>,
    scale: f64,
    seed: u64,
    fences: usize,
    tall: f64,
    rx: Option<i32>,
    ry: Option<i32>,
    iterations: Option<usize>,
    threads: Option<usize>,
    relaxed: bool,
    exact: bool,
    refine: bool,
    detail: usize,
    iters: Option<u32>,
    cells: Option<usize>,
    time_budget: Option<std::time::Duration>,
    corpus: Option<PathBuf>,
    json: Option<PathBuf>,
    inject_bug: bool,
    regime: Option<String>,
    no_tiers: bool,
    trace: Option<PathBuf>,
    metrics_json: Option<PathBuf>,
    input: Option<PathBuf>,
    listen: Option<String>,
    check: bool,
    budget: Option<i64>,
    metrics_addr: Option<String>,
    stats_every: Option<u64>,
}

/// Parses a duration like `60`, `60s`, or `2m` (seconds by default).
fn parse_duration(s: &str) -> Option<std::time::Duration> {
    let (num, mult) = match s.as_bytes().last()? {
        b'm' => (&s[..s.len() - 1], 60.0),
        b's' => (&s[..s.len() - 1], 1.0),
        _ => (s, 1.0),
    };
    let v: f64 = num.parse().ok()?;
    (v >= 0.0).then(|| std::time::Duration::from_secs_f64(v * mult))
}

fn parse_opts(args: &[String]) -> Result<Opts, CliError> {
    let mut o = Opts {
        scale: 1.0,
        seed: 1,
        ..Opts::default()
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut val = |name: &str| -> Result<&String, CliError> {
            it.next()
                .ok_or_else(|| fail(format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--aux" => o.aux = Some(PathBuf::from(val("--aux")?)),
            "--lef" => o.lef = Some(PathBuf::from(val("--lef")?)),
            "--def" => o.def = Some(PathBuf::from(val("--def")?)),
            "--out" => o.out = Some(PathBuf::from(val("--out")?)),
            "--svg" => o.svg = Some(PathBuf::from(val("--svg")?)),
            "--format" => o.format = Some(val("--format")?.clone()),
            "--bench" => o.bench = Some(val("--bench")?.clone()),
            "--scale" => o.scale = val("--scale")?.parse().map_err(|_| fail("bad --scale"))?,
            "--seed" => o.seed = val("--seed")?.parse().map_err(|_| fail("bad --seed"))?,
            "--fences" => o.fences = val("--fences")?.parse().map_err(|_| fail("bad --fences"))?,
            "--tall" => o.tall = val("--tall")?.parse().map_err(|_| fail("bad --tall"))?,
            "--rx" => o.rx = Some(val("--rx")?.parse().map_err(|_| fail("bad --rx"))?),
            "--ry" => o.ry = Some(val("--ry")?.parse().map_err(|_| fail("bad --ry"))?),
            "--iterations" => {
                o.iterations = Some(
                    val("--iterations")?
                        .parse()
                        .map_err(|_| fail("bad --iterations"))?,
                )
            }
            "--threads" => {
                o.threads = Some(
                    val("--threads")?
                        .parse()
                        .map_err(|_| fail("bad --threads"))?,
                )
            }
            "--iters" => o.iters = Some(val("--iters")?.parse().map_err(|_| fail("bad --iters"))?),
            "--cells" => o.cells = Some(val("--cells")?.parse().map_err(|_| fail("bad --cells"))?),
            "--time-budget" => {
                o.time_budget = Some(
                    parse_duration(val("--time-budget")?)
                        .ok_or_else(|| fail("bad --time-budget (use e.g. 60, 60s, or 2m)"))?,
                )
            }
            "--corpus" => o.corpus = Some(PathBuf::from(val("--corpus")?)),
            "--json" => o.json = Some(PathBuf::from(val("--json")?)),
            "--trace" => o.trace = Some(PathBuf::from(val("--trace")?)),
            "--metrics-json" => o.metrics_json = Some(PathBuf::from(val("--metrics-json")?)),
            "--input" => o.input = Some(PathBuf::from(val("--input")?)),
            "--listen" => o.listen = Some(val("--listen")?.clone()),
            "--metrics-addr" => o.metrics_addr = Some(val("--metrics-addr")?.clone()),
            "--stats-every" => {
                let n: u64 = val("--stats-every")?
                    .parse()
                    .map_err(|_| fail("bad --stats-every"))?;
                if n == 0 {
                    return Err(fail("bad --stats-every (must be >= 1)"));
                }
                o.stats_every = Some(n);
            }
            "--check" => o.check = true,
            "--budget" => {
                o.budget = Some(val("--budget")?.parse().map_err(|_| fail("bad --budget"))?)
            }
            "--inject-bug" => o.inject_bug = true,
            "--regime" => o.regime = Some(val("--regime")?.clone()),
            "--no-tiers" => o.no_tiers = true,
            "--relaxed" => o.relaxed = true,
            "--exact" => o.exact = true,
            "--refine" => o.refine = true,
            "--detail" => o.detail = val("--detail")?.parse().map_err(|_| fail("bad --detail"))?,
            other => return Err(fail(format!("unknown option {other}"))),
        }
    }
    Ok(o)
}

fn load_design(o: &Opts) -> Result<Design, CliError> {
    match (&o.aux, &o.lef, &o.def) {
        (Some(aux), ..) => {
            bookshelf::read(aux).map_err(|e| fail(format!("cannot read {}: {e}", aux.display())))
        }
        (None, Some(lef), Some(def)) => {
            lefdef::read(lef, def).map_err(|e| fail(format!("cannot read lef/def: {e}")))
        }
        _ => Err(fail("need --aux FILE or both --lef FILE and --def FILE")),
    }
}

fn write_design(design: &Design, dir: &Path, format: &str) -> Result<String, CliError> {
    let base = design.name().to_string();
    match format {
        "bookshelf" => {
            bookshelf::write(design, dir, &base)
                .map_err(|e| fail(format!("cannot write bookshelf: {e}")))?;
            Ok(format!("{}/{base}.aux", dir.display()))
        }
        "lefdef" => {
            lefdef::write(design, dir, &base)
                .map_err(|e| fail(format!("cannot write lef/def: {e}")))?;
            Ok(format!("{}/{base}.lef + .def", dir.display()))
        }
        other => Err(fail(format!("unknown format {other} (bookshelf|lefdef)"))),
    }
}

fn legalizer_config(o: &Opts) -> LegalizerConfig {
    let mut cfg = LegalizerConfig::paper().with_seed(o.seed);
    if let (Some(rx), Some(ry)) = (o.rx, o.ry) {
        cfg = cfg.with_window(rx, ry);
    }
    if o.relaxed {
        cfg = cfg.with_rail_mode(PowerRailMode::Relaxed);
    }
    if o.exact {
        cfg = cfg.with_eval_mode(EvalMode::Exact);
    }
    cfg
}

fn stats_text(design: &Design) -> String {
    let mut out = String::new();
    let fp = design.floorplan();
    let _ = writeln!(out, "design {}", design.name());
    let _ = writeln!(
        out,
        "  {} movable cells ({} multi-row), {} fixed/blockage objects",
        design.num_movable(),
        design
            .movable_cells()
            .filter(|&c| design.cell(c).is_multi_row())
            .count(),
        design.num_cells() - design.num_movable(),
    );
    let _ = writeln!(
        out,
        "  {} rows x up to {} sites, capacity {} sites, density {:.3}",
        fp.num_rows(),
        fp.bounds().w,
        fp.capacity(),
        design.density(),
    );
    let _ = writeln!(
        out,
        "  {} nets, {} pins, {} fence regions",
        design.netlist().num_nets(),
        design.netlist().pins().len(),
        design.regions().len(),
    );
    let _ = writeln!(
        out,
        "  input HPWL {:.6} m",
        mrl_metrics::hpwl_of_input(design) * 1e-6
    );
    out
}

fn get_u64(json: &Json, section: &str, key: &str) -> u64 {
    json.get(section)
        .and_then(|s| s.get(key))
        .and_then(Json::as_f64)
        .unwrap_or(0.0) as u64
}

/// The value range covered by log2 histogram bucket `i` (see
/// `mrl_legalize::Hist`), as a label.
fn bucket_label(i: usize) -> String {
    match i {
        0 => "0".to_string(),
        1 => "1".to_string(),
        _ => format!("{}-{}", 1u64 << (i - 1), (1u64 << i) - 1),
    }
}

/// Per-histogram `(label, count)` rows up to the last non-empty bucket.
fn hist_rows(hist: &Json) -> Vec<(String, u64)> {
    let Some(Json::Arr(buckets)) = hist.get("buckets") else {
        return Vec::new();
    };
    let counts: Vec<u64> = buckets
        .iter()
        .map(|b| b.as_f64().unwrap_or(0.0) as u64)
        .collect();
    let Some(last) = counts.iter().rposition(|&c| c > 0) else {
        return Vec::new();
    };
    counts[..=last]
        .iter()
        .enumerate()
        .map(|(i, &c)| (bucket_label(i), c))
        .collect()
}

/// Renders the human-readable digest of a `mrl-metrics-v1` JSON document.
fn report_text(json: &Json) -> Result<String, CliError> {
    let schema = match json.get("schema") {
        Some(Json::Str(s)) => s.as_str(),
        _ => return Err(fail("missing \"schema\" key — not a metrics JSON")),
    };
    let design = match json.get("run").and_then(|r| r.get("design")) {
        Some(Json::Str(s)) => s.clone(),
        _ => "?".to_string(),
    };
    let mut out = String::new();
    let _ = writeln!(out, "metrics digest for {design} ({schema})");
    let run = |key: &str| {
        json.get("run")
            .and_then(|r| r.get(key))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    let phase = |key: &str| {
        json.get("run")
            .and_then(|r| r.get("phases"))
            .and_then(|p| p.get(key))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    // The keys come from the lists the metrics JSON writer iterates, so the
    // digest cannot miss a phase, fail reason or escalation counter.
    let phases: Vec<String> = Phase::ALL
        .into_iter()
        .map(|p| format!("{} {:.3}s", p.name(), phase(&format!("{}_s", p.name()))))
        .collect();
    let _ = writeln!(
        out,
        "  run: {} threads, {:.3}s wall ({})",
        run("threads") as u64,
        run("wall_s"),
        phases.join(", "),
    );
    let c = |key: &str| get_u64(json, "counters", key);
    let _ = writeln!(
        out,
        "  placement: {} placed ({} direct, {} via MLL), {} MLL calls, {} retry rounds",
        c("placed"),
        c("direct"),
        c("via_mll"),
        c("mll_calls"),
        c("retry_rounds"),
    );
    if c("escalation_engaged") > 0 {
        let tiers: Vec<String> = EscalationCounters::default()
            .entries()
            .into_iter()
            .map(|(key, _)| format!("{} {key}", c(key)))
            .collect();
        let _ = writeln!(out, "  escalation: {}", tiers.join(", "));
    }
    if c("stripes") > 0 {
        let _ = writeln!(
            out,
            "  parallel: {} stripes, {} conflicts, {} residue cells",
            c("stripes"),
            c("conflicts"),
            c("residue"),
        );
    }
    let generated = c("combos_generated");
    let pruned = c("combos_pruned");
    let pct = if generated > 0 {
        100.0 * pruned as f64 / generated as f64
    } else {
        0.0
    };
    let _ = writeln!(
        out,
        "  combos: {generated} generated, {pruned} pruned ({pct:.1}%), {} evaluated",
        c("combos_evaluated"),
    );
    let failures: Vec<String> = FailReason::ALL
        .into_iter()
        .map(|r| {
            let n = get_u64(json, "fail_reasons", &r.code().replace('-', "_"));
            format!("{n} {}", r.code())
        })
        .collect();
    let _ = writeln!(out, "  failures: {}", failures.join(", "));
    let _ = writeln!(
        out,
        "  trace: {} attempts, {} events ({} dropped)",
        c("attempts"),
        c("events"),
        c("dropped_events"),
    );
    for (name, title) in hist_catalog(json) {
        let Some(hist) = json.get("histograms").and_then(|h| h.get(&name)) else {
            continue;
        };
        let count = hist.get("count").and_then(Json::as_f64).unwrap_or(0.0);
        let sum = hist.get("sum").and_then(Json::as_f64).unwrap_or(0.0);
        let mean = if count > 0.0 { sum / count } else { 0.0 };
        let _ = writeln!(out, "  {title} ({} samples, mean {mean:.2}):", count as u64);
        let rows = hist_rows(hist);
        let peak = rows.iter().map(|&(_, c)| c).max().unwrap_or(0).max(1);
        for (label, n) in rows {
            let bar = "#".repeat(((n * 40).div_ceil(peak)) as usize).to_string();
            let _ = writeln!(out, "    {label:>12} {n:>8} {bar}");
        }
    }
    Ok(out)
}

const HIST_TITLES: [(&str, &str); 3] = [
    ("displacement_sites", "displacement (sites)"),
    ("region_cells", "local region size (cells)"),
    ("retry_round", "retry round of success"),
];

/// The histograms to render, in order: the three standard legalization
/// series first (with their curated titles), then any extras the document
/// carries — the serving path's latency and escalation histograms land
/// there — titled by their key. Keys come from a `BTreeMap`, so extras
/// render in a stable sorted order.
fn hist_catalog(json: &Json) -> Vec<(String, String)> {
    let mut catalog: Vec<(String, String)> = HIST_TITLES
        .iter()
        .map(|&(n, t)| (n.to_string(), t.to_string()))
        .collect();
    if let Some(Json::Obj(map)) = json.get("histograms") {
        for name in map.keys() {
            if HIST_TITLES.iter().all(|&(n, _)| n != name) {
                catalog.push((name.clone(), name.replace('_', " ")));
            }
        }
    }
    catalog
}

/// Renders the histograms of a metrics JSON as a simple SVG bar chart.
fn report_svg(json: &Json) -> String {
    let mut charts = Vec::new();
    for (name, title) in hist_catalog(json) {
        let Some(hist) = json.get("histograms").and_then(|h| h.get(&name)) else {
            continue;
        };
        charts.push((title, hist_rows(hist)));
    }
    let bar_w = 18;
    let chart_h = 120;
    let label_h = 40;
    let pad = 20;
    let chart_w = charts
        .iter()
        .map(|(_, rows)| rows.len().max(1) * bar_w + pad)
        .max()
        .unwrap_or(100);
    let total_h = charts.len() * (chart_h + label_h + pad) + pad;
    let mut svg = format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{w}\" height=\"{total_h}\" viewBox=\"0 0 {w} {total_h}\">\n",
        w = chart_w + 2 * pad
    );
    svg.push_str("<rect width=\"100%\" height=\"100%\" fill=\"white\"/>\n");
    for (ci, (title, rows)) in charts.iter().enumerate() {
        let top = pad + ci * (chart_h + label_h + pad);
        let _ = writeln!(
            svg,
            "<text x=\"{pad}\" y=\"{}\" font-family=\"monospace\" font-size=\"12\">{title}</text>",
            top + 12
        );
        let peak = rows.iter().map(|&(_, c)| c).max().unwrap_or(0).max(1);
        for (i, (label, n)) in rows.iter().enumerate() {
            let h = ((n * chart_h as u64) / peak) as usize;
            let x = pad + i * bar_w;
            let y = top + label_h + chart_h - h;
            let _ = writeln!(
                svg,
                "<rect x=\"{x}\" y=\"{y}\" width=\"{}\" height=\"{h}\" fill=\"#4878a8\"><title>{label}: {n}</title></rect>",
                bar_w - 2
            );
            let _ = writeln!(
                svg,
                "<text x=\"{}\" y=\"{}\" font-family=\"monospace\" font-size=\"8\" text-anchor=\"middle\">{label}</text>",
                x + bar_w / 2,
                top + label_h + chart_h + 10
            );
        }
    }
    svg.push_str("</svg>\n");
    svg
}

/// Runs one CLI invocation; `args` excludes the program name. Returns the
/// report text printed to stdout.
///
/// # Errors
///
/// [`CliError`] with a message and exit code on bad usage or I/O failure.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err(fail(USAGE));
    };
    let o = parse_opts(rest)?;
    match cmd.as_str() {
        "generate" => {
            let name = o
                .bench
                .clone()
                .ok_or_else(|| fail("--bench NAME required"))?;
            let spec = ispd2015_suite()
                .into_iter()
                .find(|s| s.name == name)
                .ok_or_else(|| fail(format!("unknown benchmark {name}")))?;
            let cfg = GeneratorConfig::default()
                .with_scale(o.scale.max(1.0))
                .with_seed(o.seed)
                .with_fence_regions(o.fences)
                .with_tall_cells(o.tall);
            let design = generate(&spec, &cfg).map_err(|e| fail(format!("generate: {e}")))?;
            let dir = o.out.clone().ok_or_else(|| fail("--out DIR required"))?;
            let format = o.format.clone().unwrap_or_else(|| "bookshelf".into());
            let path = write_design(&design, &dir, &format)?;
            Ok(format!("{}wrote {path}\n", stats_text(&design)))
        }
        "stats" => {
            let design = load_design(&o)?;
            Ok(stats_text(&design))
        }
        "legalize" => {
            let design = load_design(&o)?;
            let cfg = legalizer_config(&o);
            let mut state = PlacementState::new(&design);
            let legalizer = Legalizer::new(cfg);
            let mut ctx = if o.trace.is_some() || o.metrics_json.is_some() {
                LegalizeCtx::with_trace(TraceBuf::default())
            } else {
                LegalizeCtx::new()
            };
            let outcome = match o.threads {
                Some(n) => legalizer.legalize_parallel_with(&design, &mut state, n, &mut ctx),
                None => legalizer.legalize_with(&design, &mut state, &mut ctx),
            };
            let (stats, trace) = (ctx.stats, ctx.trace.unwrap_or_default());
            // Write the diagnostics even when the run fails — that is when
            // they are most useful.
            let mut out = String::new();
            if let Some(path) = &o.trace {
                std::fs::write(path, trace.to_chrome_json())
                    .map_err(|e| fail(format!("cannot write {}: {e}", path.display())))?;
                let _ = writeln!(out, "wrote trace to {}", path.display());
            }
            if let Some(path) = &o.metrics_json {
                let summary = stats.metrics_summary(design.name(), &trace);
                std::fs::write(path, summary.to_json_string())
                    .map_err(|e| fail(format!("cannot write {}: {e}", path.display())))?;
                let _ = writeln!(out, "wrote metrics to {}", path.display());
            }
            let stats = outcome
                .map(|()| stats)
                .map_err(|e| fail(format!("legalization failed: {e}")))?;
            let secs = stats.wall.as_secs_f64();
            let rails = if o.relaxed {
                RailCheck::Ignore
            } else {
                RailCheck::Enforce
            };
            check_legal(&design, &state, rails)
                .map_err(|r| fail(format!("result failed verification:\n{r}")))?;
            let _ = writeln!(
                out,
                "legalized {} cells in {secs:.3}s ({} direct, {} via MLL, {} retry rounds)",
                stats.placed, stats.direct, stats.via_mll, stats.retry_rounds
            );
            let fc = &stats.fail_counts;
            let _ = writeln!(
                out,
                "failed attempts: {} no-insertion-point, {} region-extraction-empty; {} cells exhausted the retry budget, {} exhausted escalation",
                fc.no_insertion_point, fc.region_extraction_empty, fc.retry_budget_exhausted, fc.escalation_exhausted
            );
            let esc = &stats.escalation;
            if esc.engaged > 0 {
                let _ = writeln!(
                    out,
                    "escalation: engaged {} times — ripple {} placed / {} rolled back ({} chains), repack {} placed ({} windows), ilp {} placed ({} solves); {:.3}s",
                    esc.engaged,
                    esc.ripple_placed,
                    esc.ripple_rolled_back,
                    esc.ripple_chains,
                    esc.repack_placed,
                    esc.repack_windows,
                    esc.ilp_placed,
                    esc.ilp_solves,
                    stats.phases.escalate.as_secs_f64()
                );
            }
            if o.threads.is_some() {
                let _ = writeln!(
                    out,
                    "parallel driver: {} threads, {} stripes, {} conflicts, {} residue cells",
                    stats.threads, stats.stripes, stats.conflicts, stats.residue
                );
            }
            let p = &stats.phases;
            let _ = writeln!(
                out,
                "phases: extract {:.3}s ({} calls), enumerate {:.3}s ({}), evaluate {:.3}s ({}), realize {:.3}s ({}), retry {:.3}s ({} rounds)",
                p.extract.as_secs_f64(),
                p.extract_calls,
                p.enumerate.as_secs_f64(),
                p.enumerate_calls,
                p.evaluate.as_secs_f64(),
                p.evaluate_calls,
                p.realize.as_secs_f64(),
                p.realize_calls,
                p.retry.as_secs_f64(),
                p.retry_rounds
            );
            if o.refine {
                let r = refine_rows(&design, &mut state)
                    .map_err(|e| fail(format!("refinement failed: {e}")))?;
                check_legal(&design, &state, rails)
                    .map_err(|r| fail(format!("refined result failed verification:\n{r}")))?;
                let _ = writeln!(
                    out,
                    "row re-packing: {} cells moved, total displacement {:.1} -> {:.1} sites",
                    r.moved, r.disp_before, r.disp_after
                );
            }
            if o.detail > 0 {
                let dcfg = DetailedConfig {
                    legalizer: legalizer_config(&o),
                    passes: o.detail,
                    ..DetailedConfig::default()
                };
                let d = DetailedPlacer::new(dcfg)
                    .improve(&design, &mut state)
                    .map_err(|e| fail(format!("detailed placement failed: {e}")))?;
                check_legal(&design, &state, rails)
                    .map_err(|r| fail(format!("detailed result failed verification:\n{r}")))?;
                let _ = writeln!(
                    out,
                    "detailed placement ({} passes): {} moves tried, {} kept, HPWL {:.2}% better",
                    o.detail,
                    d.tried,
                    d.accepted,
                    d.improvement() * 100.0
                );
            }
            let disp = displacement_stats(&design, &state);
            let hpwl = hpwl_change(&design, &state);
            let _ = writeln!(
                out,
                "displacement: avg {:.3} sites, max {:.1}, total {:.1} um",
                disp.avg_sites, disp.max_sites, disp.total_um
            );
            let _ = writeln!(
                out,
                "HPWL: {:.6} m -> {:.6} m ({:+.3}%)",
                hpwl.input_um * 1e-6,
                hpwl.placed_um * 1e-6,
                hpwl.delta() * 100.0
            );
            if let Some(dir) = &o.out {
                let positions: Vec<(f64, f64)> = (0..design.num_cells())
                    .map(|i| state.position_or_input(&design, mrl_db::CellId::from_usize(i)))
                    .collect();
                let placed = design.with_input_positions(positions);
                let format = o.format.clone().unwrap_or_else(|| "bookshelf".into());
                let path = write_design(&placed, dir, &format)?;
                let _ = writeln!(out, "wrote legalized placement to {path}");
            }
            if let Some(svg_path) = &o.svg {
                let svg = render_svg(
                    &design,
                    &state,
                    &SvgOptions {
                        displacement_whiskers: true,
                        ..SvgOptions::default()
                    },
                );
                std::fs::write(svg_path, svg)
                    .map_err(|e| fail(format!("cannot write svg: {e}")))?;
                let _ = writeln!(out, "wrote plot to {}", svg_path.display());
            }
            Ok(out)
        }
        "gp" => {
            let design = load_design(&o)?;
            let mut cfg = GpConfig {
                seed: o.seed,
                ..GpConfig::default()
            };
            if let Some(iters) = o.iterations {
                cfg.iterations = iters;
            }
            let result = GlobalPlacer::new(cfg).place(&design);
            let placed = design.with_input_positions(result.positions);
            let dir = o.out.clone().ok_or_else(|| fail("--out DIR required"))?;
            let format = o.format.clone().unwrap_or_else(|| "bookshelf".into());
            let path = write_design(&placed, &dir, &format)?;
            Ok(format!(
                "global placement: HPWL {:.6} m -> {:.6} m over {} iterations, peak overflow {:.2}\nwrote {path}\n",
                result.hpwl_trace.first().unwrap_or(&0.0) * 1e-6,
                result.hpwl_trace.last().unwrap_or(&0.0) * 1e-6,
                result.hpwl_trace.len().saturating_sub(1),
                result.final_overflow,
            ))
        }
        "check" => {
            let design = load_design(&o)?;
            // Snap the file's positions onto the grid and re-place them;
            // any failure is a legality violation of the input placement.
            let mut state = PlacementState::new(&design);
            let mut problems = Vec::new();
            for cell in design.movable_cells() {
                let (fx, fy) = design.input_position(cell);
                let at = mrl_geom::SitePoint::new(fx.round() as i32, fy.round() as i32);
                if (fx - f64::from(at.x)).abs() > 1e-6 || (fy - f64::from(at.y)).abs() > 1e-6 {
                    problems.push(format!(
                        "cell {} is off the site grid at ({fx}, {fy})",
                        design.cell(cell).name()
                    ));
                    continue;
                }
                let placed = if o.relaxed {
                    state.place_ignoring_rails(&design, cell, at)
                } else {
                    state.place(&design, cell, at)
                };
                if let Err(e) = placed {
                    problems.push(e.to_string());
                }
            }
            if problems.is_empty() {
                Ok("placement is legal\n".into())
            } else {
                let mut out = format!("{} violations:\n", problems.len());
                for p in problems.iter().take(20) {
                    let _ = writeln!(out, "  {p}");
                }
                if problems.len() > 20 {
                    let _ = writeln!(out, "  ... and {} more", problems.len() - 20);
                }
                Err(CliError {
                    message: out,
                    code: 1,
                })
            }
        }
        "convert" => {
            let design = load_design(&o)?;
            let dir = o.out.clone().ok_or_else(|| fail("--out DIR required"))?;
            let format = o.format.clone().ok_or_else(|| fail("--format required"))?;
            let path = write_design(&design, &dir, &format)?;
            Ok(format!("wrote {path}\n"))
        }
        "fuzz" => {
            let mut cfg = mrl_fuzz::FuzzConfig::new(o.seed);
            if let Some(iters) = o.iters {
                cfg = cfg.with_iters(iters);
            }
            if let Some(cells) = o.cells {
                cfg = cfg.with_max_cells(cells);
            }
            if let Some(budget) = o.time_budget {
                cfg = cfg.with_time_budget(budget);
            }
            if let Some(dir) = &o.corpus {
                std::fs::create_dir_all(dir)
                    .map_err(|e| fail(format!("cannot create {}: {e}", dir.display())))?;
                cfg = cfg.with_corpus_dir(dir.clone());
            }
            if let Some(slug) = &o.regime {
                let regime = mrl_fuzz::Regime::from_slug(slug)
                    .ok_or_else(|| fail(format!("unknown regime {slug} (baseline|dense|eco)")))?;
                cfg = cfg.with_regime(regime);
            }
            if o.inject_bug && o.no_tiers {
                return Err(fail("--inject-bug and --no-tiers are mutually exclusive"));
            }
            if o.inject_bug {
                cfg = cfg.with_fault(mrl_fuzz::Fault::ThreadOffByOne);
            }
            if o.no_tiers {
                // The escalation self-test: a dense campaign run with every
                // tier disabled must FAIL (exit 1), proving the regime
                // actually depends on the escalation ladder.
                cfg = cfg.with_fault(mrl_fuzz::Fault::TiersDisabled);
            }
            let report = mrl_fuzz::fuzz(&cfg);
            if let Some(path) = &o.json {
                std::fs::write(path, report.to_json().pretty())
                    .map_err(|e| fail(format!("cannot write {}: {e}", path.display())))?;
            }
            if report.clean() {
                Ok(report.summary())
            } else {
                // Discrepancies exit 1 (like `check`) so CI jobs fail; the
                // summary carries seeds and reproducer paths.
                Err(CliError {
                    message: report.summary(),
                    code: 1,
                })
            }
        }
        "serve" => {
            let design = load_design(&o)?;
            let cfg = legalizer_config(&o);
            let mut state = PlacementState::new(&design);
            Legalizer::new(cfg.clone())
                .legalize(&design, &mut state)
                .map_err(|e| fail(format!("base legalization failed: {e}")))?;
            let eco_cfg = mrl_eco::EcoConfig::default().with_max_induced_disp(o.budget);
            let mut session = mrl_eco::EcoSession::new(design, state, cfg, eco_cfg);

            // The exporter thread holds its own Arc; it keeps answering
            // /metrics and /healthz until the process exits.
            if let Some(addr) = &o.metrics_addr {
                let collect: std::sync::Arc<dyn mrl_telemetry::Collect> =
                    session.telemetry().clone();
                let (bound, _thread) = mrl_telemetry::spawn_exporter(addr, collect)
                    .map_err(|e| fail(format!("cannot bind metrics endpoint {addr}: {e}")))?;
                eprintln!("metrics on {bound}");
            }

            let mut responses = Vec::new();
            let mut listening = None;
            let (input, output): (Box<dyn io::BufRead>, Box<dyn io::Write + '_>) =
                match (&o.listen, &o.input) {
                    (Some(addr), _) => {
                        let accept = || -> io::Result<_> {
                            let listener = std::net::TcpListener::bind(addr)?;
                            let local = listener.local_addr()?;
                            // Scripts read the port of `127.0.0.1:0` here.
                            eprintln!("serving on {local}");
                            let (stream, _) = listener.accept()?;
                            // Nagle off: no response waits for a delayed ACK.
                            stream.set_nodelay(true)?;
                            Ok((stream.try_clone()?, stream, local))
                        };
                        let (reader, writer, local) =
                            accept().map_err(|e| fail(format!("cannot serve on {addr}: {e}")))?;
                        listening = Some(local);
                        (Box::new(io::BufReader::new(reader)), Box::new(writer))
                    }
                    (None, Some(path)) => {
                        let file = std::fs::File::open(path)
                            .map_err(|e| fail(format!("cannot read {}: {e}", path.display())))?;
                        (Box::new(io::BufReader::new(file)), Box::new(&mut responses))
                    }
                    (None, None) => (Box::new(io::stdin().lock()), Box::new(&mut responses)),
                };
            let served = mrl_eco::serve(&mut session, input, output, o.check, o.stats_every);
            served.map_err(|e| match e {
                mrl_eco::ServeError::Io(_) => fail(e.to_string()),
                _ => CliError {
                    message: e.to_string(),
                    code: 1,
                },
            })?;
            let (applied, rejected) = (session.batches_applied(), session.batches_rejected());
            let batches = applied + rejected;
            let mut out = match listening {
                Some(local) => format!(
                    "served {batches} batches over {local} ({applied} applied, {rejected} rejected)\n"
                ),
                None => format!(
                    "{}served {batches} batches ({applied} applied, {rejected} rejected, {} cells now deleted)\n",
                    String::from_utf8_lossy(&responses),
                    session.num_deleted()
                ),
            };
            // Final stats summary on the EOF/peer-close path — stderr, so
            // the NDJSON response stream on stdout stays canonical.
            let telemetry = session.telemetry();
            eprintln!("{}", telemetry.stats_line("shutdown"));
            if let Some(path) = &o.metrics_json {
                let summary = telemetry.to_metrics_summary(session.design().name());
                std::fs::write(path, summary.to_json_string())
                    .map_err(|e| fail(format!("cannot write {}: {e}", path.display())))?;
                let _ = writeln!(out, "wrote metrics to {}", path.display());
            }
            Ok(out)
        }
        "report" => {
            let path = o
                .metrics_json
                .clone()
                .ok_or_else(|| fail("--metrics-json FILE required"))?;
            let text = std::fs::read_to_string(&path)
                .map_err(|e| fail(format!("cannot read {}: {e}", path.display())))?;
            let json = Json::parse(&text)
                .map_err(|e| fail(format!("{} is not valid metrics JSON: {e}", path.display())))?;
            let mut out = report_text(&json)?;
            if let Some(svg_path) = &o.svg {
                std::fs::write(svg_path, report_svg(&json))
                    .map_err(|e| fail(format!("cannot write svg: {e}")))?;
                let _ = writeln!(out, "wrote digest plot to {}", svg_path.display());
            }
            Ok(out)
        }
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        other => Err(fail(format!("unknown command {other}\n{USAGE}"))),
    }
}

/// Usage text.
pub const USAGE: &str = "\
mrl — multi-row height standard cell legalization (Chow, Pui & Young, DAC 2016)

commands:
  generate --bench NAME --out DIR [--scale N] [--seed S] [--fences K]
           [--tall F] [--format bookshelf|lefdef]
  legalize (--aux F | --lef F --def F) [--relaxed] [--exact] [--rx N --ry N]
           [--threads N] [--refine] [--detail N] [--out DIR] [--svg FILE]
           [--format bookshelf|lefdef] [--trace FILE] [--metrics-json FILE]
  report   --metrics-json FILE [--svg FILE]
  gp       (--aux F | --lef F --def F) --out DIR [--iterations N] [--seed S]
  check    (--aux F | --lef F --def F) [--relaxed]
  stats    (--aux F | --lef F --def F)
  convert  (--aux F | --lef F --def F) --out DIR --format bookshelf|lefdef
  fuzz     [--seed S] [--iters N] [--cells N] [--time-budget T]
           [--regime baseline|dense|eco] [--corpus DIR] [--json FILE]
           [--inject-bug] [--no-tiers]
  serve    (--aux F | --lef F --def F) [--input FILE] [--listen ADDR]
           [--check] [--budget N] [--rx N --ry N] [--relaxed] [--seed S]
           [--metrics-addr ADDR] [--stats-every N] [--metrics-json FILE]
";

#[cfg(test)]
mod tests {
    use super::*;
    use mrl_legalize::MetricsSummary;

    /// A per-test directory under the system temp dir, removed on drop —
    /// also when the test panics.
    struct TmpDir(PathBuf);

    impl std::ops::Deref for TmpDir {
        type Target = Path;
        fn deref(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TmpDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn tmpdir(tag: &str) -> TmpDir {
        let dir = std::env::temp_dir().join(format!("mrl_cli_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        TmpDir(dir)
    }

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn generate_then_stats_then_legalize() {
        let dir = tmpdir("flow");
        let out = run(&args(&[
            "generate",
            "--bench",
            "fft_2",
            "--scale",
            "100",
            "--out",
            dir.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("wrote"));
        let aux = dir.join("fft_2.aux");
        let stats = run(&args(&["stats", "--aux", aux.to_str().unwrap()])).unwrap();
        assert!(stats.contains("movable cells"));
        let legal = run(&args(&["legalize", "--aux", aux.to_str().unwrap()])).unwrap();
        assert!(legal.contains("legalized"));
        assert!(legal.contains("displacement"));
    }

    /// `--metrics-json` carries the escalation counters the text output
    /// prints, and `mrl report` lists every fail reason and escalation
    /// counter of it with the same values. des_perf_1 at 1/20 scale, seed
    /// 1, engages the ladder.
    #[test]
    fn metrics_json_escalation_counters_match_the_printed_line() {
        let dir = tmpdir("esc_metrics");
        let d = dir.to_str().unwrap();
        run(&args(&[
            "generate",
            "--bench",
            "des_perf_1",
            "--scale",
            "20",
            "--seed",
            "1",
            "--out",
            d,
        ]))
        .unwrap();
        let aux = dir.join("des_perf_1.aux");
        let metrics = dir.join("m.json");
        let out = run(&args(&[
            "legalize",
            "--aux",
            aux.to_str().unwrap(),
            "--metrics-json",
            metrics.to_str().unwrap(),
        ]))
        .unwrap();
        let printed = out
            .lines()
            .find(|l| l.starts_with("escalation: "))
            .unwrap_or_else(|| panic!("the run should escalate:\n{out}"));
        let json = Json::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
        let c = |key: &str| get_u64(&json, "counters", key);
        assert!(c("escalation_engaged") > 0);
        let expected = format!(
            "escalation: engaged {} times — ripple {} placed / {} rolled back ({} chains), \
             repack {} placed ({} windows), ilp {} placed ({} solves);",
            c("escalation_engaged"),
            c("ripple_placed"),
            c("ripple_rolled_back"),
            c("ripple_chains"),
            c("repack_placed"),
            c("repack_windows"),
            c("ilp_placed"),
            c("ilp_solves"),
        );
        assert!(
            printed.starts_with(&expected),
            "printed: {printed}\njson:    {expected}"
        );

        let m = metrics.to_str().unwrap();
        let digest = run(&args(&["report", "--metrics-json", m])).unwrap();
        // A digest line `label: 3 a, 4 b` as [("a", 3), ("b", 4)].
        let items = |label: &str| -> Vec<(String, u64)> {
            let rest = digest
                .lines()
                .find_map(|l| l.trim_start().strip_prefix(label))
                .unwrap_or_else(|| panic!("no `{label}` line:\n{digest}"));
            rest.split(',')
                .map(|item| {
                    let (n, key) = item.trim().split_once(' ').unwrap();
                    (key.to_string(), n.parse().unwrap())
                })
                .collect()
        };
        let reasons: Vec<(String, u64)> = FailReason::ALL
            .into_iter()
            .map(|r| {
                let n = get_u64(&json, "fail_reasons", &r.code().replace('-', "_"));
                (r.code().to_string(), n)
            })
            .collect();
        assert_eq!(items("failures:"), reasons, "{digest}");
        let counters: Vec<(String, u64)> = EscalationCounters::default()
            .entries()
            .into_iter()
            .map(|(key, _)| (key.to_string(), c(key)))
            .collect();
        assert_eq!(items("escalation:"), counters, "{digest}");
    }

    #[test]
    fn legalize_writes_outputs_and_svg() {
        let dir = tmpdir("outputs");
        run(&args(&[
            "generate",
            "--bench",
            "fft_a",
            "--scale",
            "100",
            "--out",
            dir.to_str().unwrap(),
        ]))
        .unwrap();
        let aux = dir.join("fft_a.aux");
        let svg = dir.join("plot.svg");
        let out_dir = dir.join("legalized");
        let out = run(&args(&[
            "legalize",
            "--aux",
            aux.to_str().unwrap(),
            "--out",
            out_dir.to_str().unwrap(),
            "--svg",
            svg.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("wrote legalized placement"));
        assert!(svg.exists());
        // The written placement round-trips and passes `check`.
        let legal_aux = out_dir.join("fft_a.aux");
        let check = run(&args(&["check", "--aux", legal_aux.to_str().unwrap()])).unwrap();
        assert!(check.contains("legal"));
    }

    #[test]
    fn legalize_with_refine_and_detail() {
        let dir = tmpdir("refine");
        run(&args(&[
            "generate",
            "--bench",
            "fft_2",
            "--scale",
            "100",
            "--out",
            dir.to_str().unwrap(),
        ]))
        .unwrap();
        let aux = dir.join("fft_2.aux");
        let out = run(&args(&[
            "legalize",
            "--aux",
            aux.to_str().unwrap(),
            "--refine",
            "--detail",
            "1",
        ]))
        .unwrap();
        assert!(out.contains("row re-packing"), "{out}");
        assert!(out.contains("detailed placement (1 passes)"), "{out}");
    }

    #[test]
    fn legalize_with_threads_matches_single_thread() {
        let dir = tmpdir("threads");
        run(&args(&[
            "generate",
            "--bench",
            "fft_2",
            "--scale",
            "100",
            "--out",
            dir.to_str().unwrap(),
        ]))
        .unwrap();
        let aux = dir.join("fft_2.aux");
        let mut outputs = Vec::new();
        for threads in ["1", "4"] {
            let out_dir = dir.join(format!("par_{threads}"));
            let out = run(&args(&[
                "legalize",
                "--aux",
                aux.to_str().unwrap(),
                "--threads",
                threads,
                "--out",
                out_dir.to_str().unwrap(),
            ]))
            .unwrap();
            assert!(out.contains("parallel driver"), "{out}");
            assert!(out.contains("phases: extract"), "{out}");
            outputs.push(std::fs::read_to_string(out_dir.join("fft_2.pl")).unwrap());
        }
        assert_eq!(
            outputs[0], outputs[1],
            "thread counts produced different .pl files"
        );
    }

    #[test]
    fn check_flags_illegal_placement() {
        let dir = tmpdir("illegal");
        run(&args(&[
            "generate",
            "--bench",
            "fft_b",
            "--scale",
            "200",
            "--out",
            dir.to_str().unwrap(),
        ]))
        .unwrap();
        // The raw generated GP is overlapping/off-grid: check must fail.
        let aux = dir.join("fft_b.aux");
        let err = run(&args(&["check", "--aux", aux.to_str().unwrap()])).unwrap_err();
        assert_eq!(err.code, 1);
        assert!(err.message.contains("violations"));
    }

    #[test]
    fn gp_command_writes_placement() {
        let dir = tmpdir("gp");
        run(&args(&[
            "generate",
            "--bench",
            "fft_a",
            "--scale",
            "200",
            "--out",
            dir.to_str().unwrap(),
        ]))
        .unwrap();
        let aux = dir.join("fft_a.aux");
        let out_dir = dir.join("gp_out");
        let out = run(&args(&[
            "gp",
            "--aux",
            aux.to_str().unwrap(),
            "--out",
            out_dir.to_str().unwrap(),
            "--iterations",
            "3",
        ]))
        .unwrap();
        assert!(out.contains("global placement"));
        assert!(out_dir.join("fft_a.aux").exists());
    }

    #[test]
    fn convert_between_formats() {
        let dir = tmpdir("convert");
        run(&args(&[
            "generate",
            "--bench",
            "fft_a",
            "--scale",
            "200",
            "--out",
            dir.to_str().unwrap(),
        ]))
        .unwrap();
        let aux = dir.join("fft_a.aux");
        let out_dir = dir.join("as_lefdef");
        run(&args(&[
            "convert",
            "--aux",
            aux.to_str().unwrap(),
            "--out",
            out_dir.to_str().unwrap(),
            "--format",
            "lefdef",
        ]))
        .unwrap();
        assert!(out_dir.join("fft_a.lef").exists());
        assert!(out_dir.join("fft_a.def").exists());
    }

    #[test]
    fn fuzz_smoke_is_clean_and_writes_json() {
        let dir = tmpdir("fuzz");
        let json = dir.join("report.json");
        let out = run(&args(&[
            "fuzz",
            "--seed",
            "0",
            "--iters",
            "5",
            "--cells",
            "40",
            "--json",
            json.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("no discrepancies"), "{out}");
        let text = std::fs::read_to_string(&json).unwrap();
        assert!(text.contains("\"seed\""));
        assert!(text.contains("\"cases_run\""));
    }

    #[test]
    fn fuzz_dense_regime_runs_clean() {
        let out = run(&args(&[
            "fuzz", "--seed", "0", "--iters", "3", "--cells", "40", "--regime", "dense",
        ]))
        .unwrap();
        assert!(out.contains("no discrepancies"), "{out}");
    }

    /// Writes a small generated benchmark and returns its directory (keep
    /// it alive while the files are used) and its .aux path.
    fn generated_aux(tag: &str) -> (TmpDir, PathBuf) {
        let dir = tmpdir(tag);
        run(&args(&[
            "generate",
            "--bench",
            "fft_2",
            "--scale",
            "100",
            "--out",
            dir.to_str().unwrap(),
        ]))
        .unwrap();
        let aux = dir.join("fft_2.aux");
        (dir, aux)
    }

    /// First two movable cell indices of a design on disk (the generated
    /// benchmarks lead with fixed macros, so index 0 is not movable).
    fn movable_indices(aux: &Path) -> (usize, usize) {
        let o = Opts {
            aux: Some(aux.to_path_buf()),
            ..Opts::default()
        };
        let design = load_design(&o).unwrap();
        let mut it = design.movable_cells().map(|c| c.index());
        (it.next().unwrap(), it.next().unwrap())
    }

    /// A loopback port free at the time of the call.
    fn free_port() -> u16 {
        std::net::TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap()
            .port()
    }

    /// One connection to `mrl serve --listen` running in a thread of this
    /// process on a free loopback port.
    struct ServeClient {
        reader: std::io::BufReader<std::net::TcpStream>,
        writer: std::net::TcpStream,
        server: std::thread::JoinHandle<Result<String, CliError>>,
    }

    impl ServeClient {
        /// Starts the server on `aux` with `extra` flags and connects.
        fn start(aux: &Path, extra: &[&str]) -> Self {
            let addr = format!("127.0.0.1:{}", free_port());
            let mut argv = vec![
                "serve".to_string(),
                "--aux".to_string(),
                aux.to_str().unwrap().to_string(),
                "--listen".to_string(),
                addr.clone(),
            ];
            argv.extend(extra.iter().map(|s| s.to_string()));
            let server = std::thread::spawn(move || run(&argv));
            // The server legalizes before binding; retry until it listens.
            for _ in 0..300 {
                if let Ok(stream) = std::net::TcpStream::connect(&addr) {
                    return ServeClient {
                        reader: std::io::BufReader::new(stream.try_clone().unwrap()),
                        writer: stream,
                        server,
                    };
                }
                std::thread::sleep(std::time::Duration::from_millis(100));
            }
            panic!("server never bound {addr}");
        }

        /// Sends `text` in one write and reads `n` response lines. Returns
        /// them, newlines stripped, with the time from the write to the
        /// last one.
        fn send(&mut self, text: &str, n: usize) -> (Vec<String>, std::time::Duration) {
            use std::io::{BufRead as _, Write as _};
            let t = std::time::Instant::now();
            self.writer.write_all(text.as_bytes()).unwrap();
            let responses = (0..n)
                .map(|_| {
                    let mut line = String::new();
                    self.reader.read_line(&mut line).unwrap();
                    assert!(line.ends_with('\n'), "no response to {} bytes", text.len());
                    line.trim_end().to_string()
                })
                .collect();
            (responses, t.elapsed())
        }

        /// Sends `text` and returns the one response it gets.
        fn ask(&mut self, text: &str) -> String {
            self.send(text, 1).0.remove(0)
        }

        /// Closes the connection and returns the server's summary.
        fn finish(self) -> String {
            drop(self.writer);
            drop(self.reader);
            self.server.join().unwrap().unwrap()
        }
    }

    /// A response line without its `wall_us` field, the one part of a
    /// response that differs from run to run.
    fn strip_wall_us(line: &str) -> String {
        const KEY: &str = ",\"wall_us\":";
        let Some(at) = line.find(KEY) else {
            return line.to_string();
        };
        let value = at + KEY.len();
        let digits = line[value..].bytes().take_while(u8::is_ascii_digit).count();
        format!("{}{}", &line[..at], &line[value + digits..])
    }

    /// A one-move request of cell `cell` whose target depends on `id`.
    fn move_request(id: usize, cell: usize) -> String {
        format!(
            "{{\"id\":{id},\"edits\":[{{\"op\":\"move\",\"cell\":{cell},\"x\":{}.0,\"y\":1.0}}]}}\n",
            4 + id % 8
        )
    }

    /// Round trips at the start of a connection that Linux acknowledges at
    /// once (quick-ACK mode covers about the first 16 segments). Latency
    /// tests run past them, where the peer delays its ACKs.
    const WARM_UP_ROUND_TRIPS: usize = 32;

    #[test]
    fn serve_applies_scripted_stream_from_file() {
        let (_dir, aux) = generated_aux("serve");
        let (m0, m1) = movable_indices(&aux);
        let stream = aux.parent().unwrap().join("stream.ndjson");
        std::fs::write(
            &stream,
            format!(
                "# scripted ECO stream\n\
                 {{\"id\":1,\"edits\":[{{\"op\":\"move\",\"cell\":{m0},\"x\":5.0,\"y\":1.0}}]}}\n\
                 {{\"id\":2,\"edits\":[{{\"op\":\"insert\",\"name\":\"b0\",\"w\":2,\"h\":1,\"rail\":\"vdd\",\"x\":9.0,\"y\":2.0}}]}}\n\
                 {{\"id\":3,\"edits\":[{{\"op\":\"delete\",\"cell\":{m1}}}]}}\n"
            ),
        )
        .unwrap();
        let out = run(&args(&[
            "serve",
            "--aux",
            aux.to_str().unwrap(),
            "--input",
            stream.to_str().unwrap(),
            "--check",
        ]))
        .unwrap();
        assert!(out.contains("\"id\":1"), "{out}");
        assert!(out.contains("\"applied\":true"), "{out}");
        assert!(out.contains("\"wall_us\""), "{out}");
        assert!(
            out.contains("served 3 batches (3 applied, 0 rejected"),
            "{out}"
        );
        assert!(out.contains("1 cells now deleted"), "{out}");
    }

    #[test]
    fn serve_reports_errors_inline_and_keeps_serving() {
        let (_dir, aux) = generated_aux("serveerr");
        let stream = aux.parent().unwrap().join("bad.ndjson");
        std::fs::write(
            &stream,
            "{\"id\":1,\"edits\":[{\"op\":\"warp\"}]}\n\
             {\"id\":2,\"edits\":[{\"op\":\"move\",\"cell\":999999,\"x\":1.0,\"y\":1.0}]}\n\
             {\"id\":3,\"edits\":[]}\n",
        )
        .unwrap();
        let out = run(&args(&[
            "serve",
            "--aux",
            aux.to_str().unwrap(),
            "--input",
            stream.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("unknown op"), "{out}");
        assert!(out.contains("does not exist"), "{out}");
        // The empty batch still commits; only it counts toward the summary.
        assert!(out.contains("served 1 batches (1 applied"), "{out}");
    }

    #[test]
    fn serve_zero_budget_rejects_displacing_edits() {
        let (_dir, aux) = generated_aux("servebudget");
        let stream = aux.parent().unwrap().join("wide.ndjson");
        // A wide insert at an occupied spot must displace neighbors; with
        // --budget 0 the batch rolls back and reports the rejection.
        std::fs::write(
            &stream,
            "{\"id\":1,\"edits\":[{\"op\":\"insert\",\"name\":\"wide\",\"w\":24,\"h\":1,\"rail\":\"vdd\",\"x\":10.0,\"y\":1.0}]}\n",
        )
        .unwrap();
        let out = run(&args(&[
            "serve",
            "--aux",
            aux.to_str().unwrap(),
            "--input",
            stream.to_str().unwrap(),
            "--budget",
            "0",
            "--check",
        ]))
        .unwrap();
        // Either the insert found a true free gap (applied) or it was
        // rejected over budget; both end with a legal placement. Require
        // the response to carry the verdict either way.
        assert!(
            out.contains("\"applied\":true") || out.contains("exceeds budget"),
            "{out}"
        );
    }

    #[test]
    fn serve_answers_over_tcp() {
        let (_dir, aux) = generated_aux("servetcp");
        let (m0, _) = movable_indices(&aux);
        let mut client = ServeClient::start(&aux, &["--check"]);
        let response = client.ask(&move_request(9, m0));
        assert!(response.contains("\"id\":9"), "{response}");
        assert!(response.contains("\"applied\":true"), "{response}");
        let summary = client.finish();
        assert!(summary.contains("served 1 batches"), "{summary}");
    }

    #[test]
    fn serve_tcp_sequential_requests_skip_the_delayed_ack() {
        let (_dir, aux) = generated_aux("servetcpseq");
        let (m0, _) = movable_indices(&aux);
        let mut client = ServeClient::start(&aux, &[]);
        for id in 0..WARM_UP_ROUND_TRIPS {
            client.ask(&move_request(id, m0));
        }
        let mut lat: Vec<std::time::Duration> = (WARM_UP_ROUND_TRIPS..WARM_UP_ROUND_TRIPS + 32)
            .map(|id| {
                let (responses, took) = client.send(&move_request(id, m0), 1);
                assert!(responses[0].contains("\"applied\":true"), "{responses:?}");
                took
            })
            .collect();
        lat.sort_unstable();
        // A response held back by Nagle's algorithm waits out the client's
        // delayed ACK, about 40 ms; the engine needs well under 1 ms here.
        let median = lat[lat.len() / 2];
        assert!(
            median < std::time::Duration::from_millis(20),
            "median round trip {median:?}"
        );
        client.finish();
    }

    #[test]
    fn serve_tcp_pipelined_burst_skips_the_delayed_ack() {
        let (_dir, aux) = generated_aux("servetcppipe");
        let (m0, _) = movable_indices(&aux);
        let mut client = ServeClient::start(&aux, &[]);
        for id in 0..WARM_UP_ROUND_TRIPS {
            client.ask(&move_request(id, m0));
        }
        // Eight requests in one write: with Nagle on, each response after
        // the first waits for the ACK of the one before it.
        let best = (0..3)
            .map(|burst| {
                let first = WARM_UP_ROUND_TRIPS + 8 * burst;
                let text: String = (first..first + 8).map(|id| move_request(id, m0)).collect();
                let (responses, took) = client.send(&text, 8);
                for (i, r) in responses.iter().enumerate() {
                    assert!(r.contains(&format!("\"id\":{}", first + i)), "{r}");
                }
                took
            })
            .min()
            .unwrap();
        assert!(
            best < std::time::Duration::from_millis(20),
            "best 8-request burst {best:?}"
        );
        client.finish();
    }

    #[test]
    fn serve_tcp_responses_match_the_input_replay() {
        let (_dir, aux) = generated_aux("servetcpreplay");
        let (m0, m1) = movable_indices(&aux);
        let mut stream = String::new();
        for id in 0..12 {
            stream.push_str(&move_request(id, if id % 2 == 0 { m0 } else { m1 }));
        }
        stream.push_str(&format!(
            "{{\"id\":12,\"edits\":[{{\"op\":\"insert\",\"name\":\"b0\",\"w\":2,\"h\":1,\"rail\":\"vdd\",\"x\":9.0,\"y\":2.0}}]}}\n\
             {{\"id\":13,\"edits\":[{{\"op\":\"resize\",\"cell\":{m1},\"w\":3}}]}}\n\
             not json\n"
        ));
        let requests = stream.lines().count();
        let mut client = ServeClient::start(&aux, &["--check"]);
        // Half the stream one request at a time, the rest in one write.
        let mut wire: Vec<String> = stream
            .lines()
            .take(requests / 2)
            .map(|line| client.ask(&format!("{line}\n")))
            .collect();
        let rest: String = stream
            .lines()
            .skip(requests / 2)
            .map(|l| format!("{l}\n"))
            .collect();
        wire.extend(client.send(&rest, requests - requests / 2).0);
        client.finish();

        let path = aux.parent().unwrap().join("replay.ndjson");
        std::fs::write(&path, &stream).unwrap();
        let out = run(&args(&[
            "serve",
            "--aux",
            aux.to_str().unwrap(),
            "--input",
            path.to_str().unwrap(),
            "--check",
        ]))
        .unwrap();
        let replay: Vec<String> = out
            .lines()
            .filter(|l| l.starts_with('{'))
            .map(strip_wall_us)
            .collect();
        let wire: Vec<String> = wire.iter().map(|l| strip_wall_us(l)).collect();
        assert_eq!(wire.len(), requests);
        // Every batch applies; the last line is the parse error.
        assert!(
            wire[..requests - 1]
                .iter()
                .all(|l| l.contains("\"applied\":true")),
            "{wire:?}"
        );
        assert_eq!(wire, replay);
        assert!(wire.iter().all(|l| !l.contains("wall_us")), "{wire:?}");
    }

    #[test]
    fn serve_answers_a_too_deeply_nested_line_and_keeps_serving() {
        let (_dir, aux) = generated_aux("servenest");
        let (m0, _) = movable_indices(&aux);
        let mut client = ServeClient::start(&aux, &[]);
        // 200 KB of `[` used to recurse once per byte and overflow the stack.
        let response = client.ask(&format!("{}\n", "[".repeat(200_000)));
        assert!(
            response.starts_with("{\"error\":{\"kind\":\"parse\""),
            "{response}"
        );
        assert!(response.contains("nesting deeper than"), "{response}");
        assert!(response.ends_with("\"id\":null}"), "{response}");
        let next = client.ask(&move_request(1, m0));
        assert!(next.contains("\"applied\":true"), "{next}");
        assert!(client.finish().contains("served 1 batches"));
    }

    #[test]
    fn serve_exposes_metrics_and_health_over_http() {
        let (_dir, aux) = generated_aux("servemetrics");
        let (m0, _) = movable_indices(&aux);
        let maddr = format!("127.0.0.1:{}", free_port());
        let metrics_json = aux.parent().unwrap().join("serve_metrics.json");
        let mut client = ServeClient::start(
            &aux,
            &[
                "--metrics-addr",
                &maddr,
                "--metrics-json",
                metrics_json.to_str().unwrap(),
            ],
        );
        let mut ask = |line: String| client.ask(&line);

        let ok = ask(format!(
            "{{\"id\":1,\"edits\":[{{\"op\":\"move\",\"cell\":{m0},\"x\":6.0,\"y\":1.0}}]}}\n"
        ));
        assert!(ok.contains("\"applied\":true"), "{ok}");
        // A garbage line gets the canonical parse error and a null id; the
        // connection survives.
        let garbage = ask("this is not json\n".to_string());
        assert!(
            garbage.contains("\"error\":{\"kind\":\"parse\""),
            "{garbage}"
        );
        assert!(garbage.contains("\"id\":null"), "{garbage}");
        // A well-formed batch naming a nonexistent cell is an invalid_edit
        // error that echoes the request id.
        let invalid = ask(
            "{\"id\":2,\"edits\":[{\"op\":\"move\",\"cell\":999999,\"x\":1.0,\"y\":1.0}]}\n"
                .to_string(),
        );
        assert!(invalid.contains("\"kind\":\"invalid_edit\""), "{invalid}");
        assert!(invalid.contains("\"id\":2"), "{invalid}");

        let maddr_sock: std::net::SocketAddr = maddr.parse().unwrap();
        let (status, body) = mrl_telemetry::http_get(maddr_sock, "/healthz").unwrap();
        assert!(status.contains("200"), "{status}");
        assert_eq!(body, "ok\n");
        let (status, text) = mrl_telemetry::http_get(maddr_sock, "/metrics").unwrap();
        assert!(status.contains("200"), "{status}");
        assert!(
            text.contains("mrl_serve_batches_total{outcome=\"applied\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("mrl_serve_errors_total{reason=\"parse\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("mrl_serve_errors_total{reason=\"invalid_edit\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("mrl_serve_batch_latency_us_bucket{le=\"+Inf\"}"),
            "{text}"
        );
        assert!(text.contains("mrl_session_live_cells"), "{text}");

        // The poison directive flips /healthz to 503; a follow-up request
        // round-trip is the synchronization barrier.
        let synced = ask(format!(
            "#poison\n{{\"id\":3,\"edits\":[{{\"op\":\"move\",\"cell\":{m0},\"x\":8.0,\"y\":1.0}}]}}\n"
        ));
        assert!(synced.contains("\"id\":3"), "{synced}");
        let (status, body) = mrl_telemetry::http_get(maddr_sock, "/healthz").unwrap();
        assert!(status.contains("503"), "{status}");
        assert_eq!(body, "unhealthy\n");
        assert!(mrl_telemetry::http_get(maddr_sock, "/metrics")
            .unwrap()
            .1
            .contains("mrl_serve_healthy 0"),);

        let summary = client.finish();
        assert!(summary.contains("served 2 batches"), "{summary}");
        // The final summary merged the live histograms into metrics-v1.
        let written = std::fs::read_to_string(&metrics_json).unwrap();
        assert!(
            written.contains("\"schema\": \"mrl-metrics-v1\""),
            "{written}"
        );
        assert!(written.contains("\"serve_batch_latency_us\""), "{written}");
        assert!(written.contains("\"serve_phase_read_us\""), "{written}");
    }

    #[test]
    fn fuzz_rejects_unknown_regime_and_conflicting_flags() {
        let err = run(&args(&["fuzz", "--regime", "bogus"])).unwrap_err();
        assert!(err.message.contains("unknown regime"), "{}", err.message);
        let err = run(&args(&["fuzz", "--inject-bug", "--no-tiers"])).unwrap_err();
        assert!(
            err.message.contains("mutually exclusive"),
            "{}",
            err.message
        );
    }

    #[test]
    fn fuzz_inject_bug_exits_nonzero_and_writes_reproducer() {
        let dir = tmpdir("fuzzbug");
        let corpus = dir.join("corpus");
        let err = run(&args(&[
            "fuzz",
            "--seed",
            "1",
            "--iters",
            "1",
            "--cells",
            "40",
            "--inject-bug",
            "--corpus",
            corpus.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert_eq!(err.code, 1);
        assert!(err.message.contains("ThreadMismatch"), "{}", err.message);
        let wrote_repro = std::fs::read_dir(&corpus)
            .unwrap()
            .any(|e| e.unwrap().path().join("repro.aux").exists());
        assert!(wrote_repro, "no reproducer directory under corpus");
    }

    #[test]
    fn fuzz_time_budget_parses_units() {
        assert!(parse_duration("60").is_some());
        assert_eq!(
            parse_duration("60s").unwrap(),
            std::time::Duration::from_secs(60)
        );
        assert_eq!(
            parse_duration("2m").unwrap(),
            std::time::Duration::from_secs(120)
        );
        assert!(parse_duration("x").is_none());
        let out = run(&args(&[
            "fuzz",
            "--iters",
            "2",
            "--cells",
            "30",
            "--time-budget",
            "60s",
        ]))
        .unwrap();
        assert!(out.contains("fuzz:"), "{out}");
    }

    #[test]
    fn legalize_trace_is_valid_chrome_trace_json() {
        let dir = tmpdir("trace");
        run(&args(&[
            "generate",
            "--bench",
            "fft_2",
            "--scale",
            "100",
            "--out",
            dir.to_str().unwrap(),
        ]))
        .unwrap();
        let aux = dir.join("fft_2.aux");
        let trace = dir.join("trace.json");
        let out = run(&args(&[
            "legalize",
            "--aux",
            aux.to_str().unwrap(),
            "--trace",
            trace.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("wrote trace to"), "{out}");
        assert!(out.contains("failed attempts:"), "{out}");
        let text = std::fs::read_to_string(&trace).unwrap();
        let Json::Arr(events) = Json::parse(&text).unwrap() else {
            panic!("trace is not a JSON array");
        };
        assert!(!events.is_empty());
        let mut saw_complete = false;
        for ev in &events {
            let ph = match ev.get("ph") {
                Some(Json::Str(s)) => s.as_str(),
                other => panic!("event without ph: {other:?}"),
            };
            assert!(matches!(ph, "X" | "B" | "E"), "unexpected phase {ph}");
            for key in ["pid", "tid", "ts", "name"] {
                assert!(ev.get(key).is_some(), "event missing {key}");
            }
            if ph == "X" {
                assert!(ev.get("dur").is_some(), "X event missing dur");
                saw_complete = true;
            }
        }
        assert!(saw_complete, "no complete events in trace");
    }

    #[test]
    fn metrics_agree_across_thread_counts() {
        let dir = tmpdir("metrics_threads");
        run(&args(&[
            "generate",
            "--bench",
            "fft_2",
            "--scale",
            "100",
            "--out",
            dir.to_str().unwrap(),
        ]))
        .unwrap();
        let aux = dir.join("fft_2.aux");
        // One `mrl legalize --out` run with `extra` flags; returns its `.pl`.
        let legalize = |name: &str, extra: &[&str]| {
            let out = dir.join(format!("out_{name}"));
            let mut argv = vec!["legalize", "--aux", aux.to_str().unwrap()];
            argv.extend(["--out", out.to_str().unwrap()]);
            argv.extend(extra);
            run(&args(&argv)).unwrap();
            std::fs::read_to_string(out.join("fft_2.pl")).unwrap()
        };
        // The Chrome trace's events without their timings.
        let events = |path: &std::path::Path| {
            let Ok(Json::Arr(events)) = Json::parse(&std::fs::read_to_string(path).unwrap()) else {
                panic!("{} is not a JSON array", path.display());
            };
            events
                .into_iter()
                .map(|ev| match ev {
                    Json::Obj(mut fields) => {
                        fields.remove("ts");
                        fields.remove("dur");
                        fields
                    }
                    other => panic!("trace event is not an object: {other:?}"),
                })
                .collect::<Vec<_>>()
        };
        let mut sections = Vec::new();
        let mut traces = Vec::new();
        for threads in ["1", "4"] {
            let path = dir.join(format!("metrics_{threads}.json"));
            let trace = dir.join(format!("trace_{threads}.json"));
            let pl = legalize(
                threads,
                &[
                    "--threads",
                    threads,
                    "--metrics-json",
                    path.to_str().unwrap(),
                    "--trace",
                    trace.to_str().unwrap(),
                ],
            );
            let json = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
            assert_eq!(
                json.get("schema"),
                Some(&Json::Str(MetricsSummary::SCHEMA.into()))
            );
            // Only the counters/fail_reasons/histograms sections are
            // thread-count invariant; the run section carries timing.
            sections.push((
                json.get("counters").cloned(),
                json.get("fail_reasons").cloned(),
                json.get("histograms").cloned(),
            ));
            traces.push(events(&trace));
            if threads == "4" {
                let untraced = legalize("4_untraced", &["--threads", "4"]);
                assert_eq!(pl, untraced, "tracing changed the --threads 4 placement");
            }
        }
        assert!(sections[0].0.is_some());
        assert_eq!(sections[0], sections[1], "metrics diverged across threads");
        assert!(!traces[0].is_empty());
        assert_eq!(traces[0], traces[1], "trace events diverged across threads");
        let trace = dir.join("trace_seq.json");
        let traced = legalize("seq_traced", &["--trace", trace.to_str().unwrap()]);
        assert_eq!(
            traced,
            legalize("seq", &[]),
            "tracing changed the sequential placement"
        );
    }

    #[test]
    fn report_renders_metrics_digest() {
        let dir = tmpdir("report");
        run(&args(&[
            "generate",
            "--bench",
            "fft_2",
            "--scale",
            "100",
            "--out",
            dir.to_str().unwrap(),
        ]))
        .unwrap();
        let aux = dir.join("fft_2.aux");
        let metrics = dir.join("metrics.json");
        run(&args(&[
            "legalize",
            "--aux",
            aux.to_str().unwrap(),
            "--metrics-json",
            metrics.to_str().unwrap(),
        ]))
        .unwrap();
        let svg = dir.join("digest.svg");
        let out = run(&args(&[
            "report",
            "--metrics-json",
            metrics.to_str().unwrap(),
            "--svg",
            svg.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("metrics digest for fft_2"), "{out}");
        assert!(out.contains("placement:"), "{out}");
        assert!(out.contains("displacement (sites)"), "{out}");
        let svg_text = std::fs::read_to_string(&svg).unwrap();
        assert!(svg_text.starts_with("<svg"));
        // Garbage input is rejected with a parse error.
        let bad = dir.join("bad.json");
        std::fs::write(&bad, "not json").unwrap();
        let err = run(&args(&["report", "--metrics-json", bad.to_str().unwrap()])).unwrap_err();
        assert!(err.message.contains("not valid metrics JSON"));
    }

    #[test]
    fn bad_usage_reports_errors() {
        assert!(run(&args(&[])).is_err());
        assert!(run(&args(&["frobnicate"])).is_err());
        assert!(run(&args(&["legalize"])).is_err());
        assert!(run(&args(&["generate", "--bench", "nope", "--out", "/tmp"])).is_err());
        let help = run(&args(&["help"])).unwrap();
        assert!(help.contains("legalize"));
    }
}
