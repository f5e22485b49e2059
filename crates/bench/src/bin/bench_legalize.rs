//! Machine-readable legalization performance harness.
//!
//! Legalizes one synthesized design with the sequential driver and with the
//! parallel stripe driver, prints a human summary, and emits a JSON report
//! (default `BENCH_legalize.json`) with throughput, displacement, and the
//! per-phase wall-clock breakdown.
//!
//! ```text
//! bench_legalize [--cells N] [--density F] [--seed S] [--threads N]
//!                [--bench NAME] [--scale N] [--json PATH] [--no-json]
//!                [--baseline PATH] [--gate-pct N] [--scale-sweep N1,N2,..]
//!                [--util-sweep U1,U2,..] [--speedup-gate]
//! ```
//!
//! * `--cells N` — synthesize an ad-hoc design with `N` movable cells
//!   (default 20 000; ~1/11 of them double-row height).
//! * `--bench NAME --scale K` — instead clone the named Table-1 benchmark
//!   at scale `1/K`.
//! * `--threads N` — worker threads for the parallel run (default: all
//!   available cores).
//! * `--scale-sweep N1,N2,..` — multi-scale trajectory mode: legalize a
//!   design at each cell count (ascending), recording throughput,
//!   displacement, phase times, and peak RSS per point into a
//!   `trajectory` array. The smallest point additionally populates the
//!   standard report sections (best-of-3 sequential, metrics digest) so
//!   the regression gate keeps working against a sweep-produced report.
//!   Points above 30 000 cells run sequential and parallel once each.
//! * `--util-sweep U1,U2,..` — utilization sweep: legalize a
//!   witness-backed 4 000-cell design (feasibility guaranteed by
//!   construction) at each utilization, recording placement rate,
//!   displacement, and the per-escalation-tier counters into a
//!   `util_sweep` array. This is the dense-design acceptance surface:
//!   at 0.9 the bare heuristic deadlocks and the escalation ladder
//!   (ripple chains / height-binned repack / ILP residue) does the
//!   remaining placements.
//! * `--speedup-gate` — assert the parallel run is >= 1.3x over
//!   sequential. The assertion only arms when at least 4 CPUs are
//!   available and `--threads` >= 4; otherwise it is skipped with a note
//!   (a 1.3x floor is meaningless on fewer cores). The report records
//!   `available_parallelism` either way.
//! * `--baseline PATH` — compare the sequential `cells_per_sec` against a
//!   previously committed report and exit non-zero when it regressed by
//!   more than `--gate-pct` percent (default 20). Set `MRL_BENCH_SKIP_GATE=1`
//!   to skip the comparison (e.g. when the hardware differs from the
//!   machine that produced the baseline).
//!
//! The report's `prune_ratio` is the sequential run's generated combos
//! divided by its evaluated combos: how many times fewer insertion points
//! the best-first search scores than scoring every enumerated point would.

use mrl_bench::json::Json;
use mrl_db::{Design, PlacementState};
use mrl_legalize::{LegalizeCtx, LegalizeStats, Legalizer, LegalizerConfig, TraceBuf};
use mrl_metrics::displacement_stats;
use mrl_synth::{
    generate, generate_witness, ispd2015_suite, BenchmarkSpec, GeneratorConfig, WitnessConfig,
};

/// Largest cell count at which the harness still runs best-of-3 repeats;
/// larger sweep points get one sequential and one parallel run each.
const FULL_PROTOCOL_MAX_CELLS: usize = 30_000;

fn run_to_json(design: &Design, stats: &LegalizeStats, state: &PlacementState) -> Json {
    let wall_s = stats.wall.as_secs_f64();
    let disp = displacement_stats(design, state);
    let p = &stats.phases;
    let mut phases = Json::obj();
    phases.set("extract_s", p.extract.as_secs_f64());
    phases.set("extract_calls", p.extract_calls as f64);
    phases.set("enumerate_s", p.enumerate.as_secs_f64());
    phases.set("enumerate_calls", p.enumerate_calls as f64);
    phases.set("evaluate_s", p.evaluate.as_secs_f64());
    phases.set("evaluate_calls", p.evaluate_calls as f64);
    phases.set("realize_s", p.realize.as_secs_f64());
    phases.set("realize_calls", p.realize_calls as f64);
    phases.set("retry_s", p.retry.as_secs_f64());
    phases.set("retry_rounds", p.retry_rounds as f64);
    phases.set("combos_generated", p.combos_generated);
    phases.set("combos_pruned", p.combos_pruned);
    phases.set("combos_evaluated", p.combos_evaluated);

    let mut displacement = Json::obj();
    displacement.set("avg_sites", disp.avg_sites);
    displacement.set("max_sites", disp.max_sites);
    displacement.set("total_sites", disp.total_sites);
    displacement.set("total_um", disp.total_um);

    let mut run = Json::obj();
    run.set("threads", stats.threads as i64);
    run.set("wall_s", wall_s);
    run.set(
        "cells_per_sec",
        if wall_s > 0.0 {
            stats.placed as f64 / wall_s
        } else {
            0.0
        },
    );
    run.set("placed", stats.placed as i64);
    run.set("direct", stats.direct as i64);
    run.set("via_mll", stats.via_mll as i64);
    run.set("mll_calls", stats.mll_calls as i64);
    run.set("retry_rounds", i64::from(stats.retry_rounds));
    run.set("stripes", stats.stripes as i64);
    run.set("conflicts", stats.conflicts as i64);
    run.set("residue", stats.residue as i64);
    let mut escalation = Json::obj();
    for (key, value) in stats.escalation.entries() {
        escalation.set(key, value as f64);
    }
    run.set("escalation", escalation);
    run.set("displacement", displacement);
    run.set("phases", phases);
    run.set(
        "index_bytes_per_cell",
        state.index_bytes() as f64 / (design.num_movable() as f64).max(1.0),
    );
    run
}

/// Peak resident set size of this process so far, from `/proc`'s VmHWM
/// (Linux only; `None` elsewhere). A high-water mark only grows, so in a
/// sweep run the counts must ascend for per-point attribution.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn main() {
    let mut cells = 20_000usize;
    let mut density = 0.5f64;
    let mut seed = 1u64;
    let available = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut threads = available;
    let mut bench: Option<String> = None;
    let mut scale = 20.0f64;
    let mut json_path = Some("BENCH_legalize.json".to_string());
    let mut baseline: Option<String> = None;
    let mut gate_pct = 20.0f64;
    let mut sweep: Option<Vec<usize>> = None;
    let mut util_sweep: Option<Vec<f64>> = None;
    let mut speedup_gate = false;

    fn usage(msg: &str) -> ! {
        eprintln!("{msg}");
        eprintln!(
            "usage: bench_legalize [--cells N] [--density F] [--seed S] [--threads N]\n\
             \x20                     [--bench NAME] [--scale N] [--json PATH] [--no-json]\n\
             \x20                     [--baseline PATH] [--gate-pct N] [--scale-sweep N1,N2,..]\n\
             \x20                     [--util-sweep U1,U2,..] [--speedup-gate]"
        );
        std::process::exit(2);
    }
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut val = |name: &str| {
            args.next()
                .unwrap_or_else(|| usage(&format!("{name} requires a value")))
        };
        match arg.as_str() {
            "--cells" => {
                cells = val("--cells")
                    .parse()
                    .unwrap_or_else(|_| usage("--cells must be a positive integer"));
            }
            "--density" => {
                density = val("--density")
                    .parse()
                    .unwrap_or_else(|_| usage("--density must be a number"));
            }
            "--seed" => {
                seed = val("--seed")
                    .parse()
                    .unwrap_or_else(|_| usage("--seed must be an integer"));
            }
            "--threads" => {
                threads = val("--threads")
                    .parse()
                    .unwrap_or_else(|_| usage("--threads must be a positive integer"));
            }
            "--bench" => bench = Some(val("--bench")),
            "--scale" => {
                scale = val("--scale")
                    .parse()
                    .unwrap_or_else(|_| usage("--scale must be a number"));
            }
            "--json" => json_path = Some(val("--json")),
            "--no-json" => json_path = None,
            "--baseline" => baseline = Some(val("--baseline")),
            "--gate-pct" => {
                gate_pct = val("--gate-pct")
                    .parse()
                    .unwrap_or_else(|_| usage("--gate-pct must be a number"));
            }
            "--scale-sweep" => {
                let list = val("--scale-sweep")
                    .split(',')
                    .map(|s| s.trim().parse::<usize>())
                    .collect::<Result<Vec<_>, _>>()
                    .unwrap_or_else(|_| usage("--scale-sweep must be comma-separated integers"));
                if list.is_empty() {
                    usage("--scale-sweep needs at least one cell count");
                }
                sweep = Some(list);
            }
            "--util-sweep" => {
                let list = val("--util-sweep")
                    .split(',')
                    .map(|s| s.trim().parse::<f64>())
                    .collect::<Result<Vec<_>, _>>()
                    .unwrap_or_else(|_| usage("--util-sweep must be comma-separated numbers"));
                if list.is_empty() || list.iter().any(|&u| !(0.0..=1.0).contains(&u)) {
                    usage("--util-sweep utilizations must be in (0, 1]");
                }
                util_sweep = Some(list);
            }
            "--speedup-gate" => speedup_gate = true,
            other => usage(&format!("unknown argument: {other}")),
        }
    }

    let lcfg = LegalizerConfig::paper().with_seed(seed);

    let util_points = util_sweep.map(|us| run_util_sweep(&us, seed, &lcfg));

    if let Some(mut counts) = sweep {
        // Ascending order: VmHWM is monotone, so each point's RSS reading
        // is attributable to the largest design seen so far — its own.
        counts.sort_unstable();
        run_sweep(
            &counts,
            density,
            seed,
            threads,
            available,
            &lcfg,
            json_path.as_deref(),
            baseline.as_deref(),
            gate_pct,
            speedup_gate,
            util_points,
        );
        return;
    }

    let (spec, gen_cfg) = match bench {
        Some(name) => {
            let spec = ispd2015_suite()
                .into_iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| usage(&format!("unknown benchmark {name}")));
            (
                spec,
                GeneratorConfig::default().with_scale(scale).with_seed(seed),
            )
        }
        None => (
            adhoc_spec(cells, density),
            GeneratorConfig::default().with_seed(seed),
        ),
    };
    let design = generate(&spec, &gen_cfg).expect("generate benchmark");
    let full = single_point(&design, &lcfg, threads, true);

    if let Some(path) = json_path {
        let mut root = full_report(&design, &lcfg, seed, threads, &full);
        root.set("available_parallelism", available as i64);
        if let Some(points) = util_points {
            root.set("util_sweep", points);
        }
        std::fs::write(&path, root.pretty()).expect("write json report");
        eprintln!("report written to {path}");
    }

    check_speedup_gate(speedup_gate, full.speedup, threads, available);
    if let Some(baseline_path) = baseline {
        let current = full.seq_stats.placed as f64 / full.seq_wall.max(1e-12);
        gate_against_baseline(&baseline_path, current, gate_pct);
    }
}

fn adhoc_spec(cells: usize, density: f64) -> BenchmarkSpec {
    BenchmarkSpec::new(
        format!("bench_legalize_{cells}"),
        cells - cells / 11,
        cells / 11,
        density,
        0.0,
    )
}

/// One measured design: sequential (best-of-3 when `full`) and one
/// parallel run.
struct PointResult {
    seq_stats: LegalizeStats,
    seq_state: PlacementState,
    seq_wall: f64,
    par_stats: LegalizeStats,
    par_state: PlacementState,
    speedup: f64,
}

fn single_point(
    design: &Design,
    lcfg: &LegalizerConfig,
    threads: usize,
    full: bool,
) -> PointResult {
    let legalizer = Legalizer::new(lcfg.clone());
    let n = design.num_movable();
    eprintln!(
        "# bench_legalize: {} ({n} movable cells, density {:.2}), {threads} threads",
        design.name(),
        design.density()
    );

    // Best-of-3 sequential runs: the throughput gate compares wall clocks
    // of runs lasting tens of milliseconds, so a single sample is
    // noise-bound. Legalization is deterministic, so repeats can only
    // tighten the timing, never change the placement. Million-cell sweep
    // points run once: their wall clocks are seconds, not milliseconds.
    let repeats = if full { 3 } else { 1 };
    let (seq_stats, seq_state) = (0..repeats)
        .map(|_| {
            let mut state = PlacementState::new(design);
            let stats = legalizer
                .legalize(design, &mut state)
                .expect("sequential legalization");
            (stats, state)
        })
        .min_by_key(|(stats, _)| stats.wall)
        .expect("at least one run");
    let seq_wall = seq_stats.wall.as_secs_f64();
    println!(
        "sequential: {:.3}s ({:.0} cells/s)",
        seq_wall,
        seq_stats.placed as f64 / seq_wall.max(1e-12)
    );

    let p = &seq_stats.phases;
    println!(
        "pruning:    generated {}, bounded out {}, evaluated {} ({:.2}x fewer than generated)",
        p.combos_generated,
        p.combos_pruned,
        p.combos_evaluated,
        prune_ratio(&seq_stats),
    );

    let mut par_state = PlacementState::new(design);
    let par_stats = legalizer
        .legalize_parallel(design, &mut par_state, threads)
        .expect("parallel legalization");
    let par_wall = par_stats.wall.as_secs_f64();
    let speedup = seq_wall / par_wall.max(1e-12);
    println!(
        "parallel:   {:.3}s ({:.0} cells/s) — {:.2}x speedup on {threads} threads, \
         {} stripes, {} conflicts, {} residue",
        par_wall,
        par_stats.placed as f64 / par_wall.max(1e-12),
        speedup,
        par_stats.stripes,
        par_stats.conflicts,
        par_stats.residue
    );

    PointResult {
        seq_stats,
        seq_state,
        seq_wall,
        par_stats,
        par_state,
        speedup,
    }
}

/// Generated combos per evaluated combo: the factor by which the best-first
/// search scores fewer insertion points than the enumeration generates.
fn prune_ratio(stats: &LegalizeStats) -> f64 {
    stats.phases.combos_generated as f64 / (stats.phases.combos_evaluated as f64).max(1.0)
}

/// The standard single-design report (sequential / parallel sections plus
/// the traced metrics digest).
fn full_report(
    design: &Design,
    lcfg: &LegalizerConfig,
    seed: u64,
    threads: usize,
    point: &PointResult,
) -> Json {
    let legalizer = Legalizer::new(lcfg.clone());
    // One traced parallel run for the metrics digest (histograms over
    // displacement, region size, retries). Untimed: recording a trace
    // has real overhead, so its wall clock is reported only inside the
    // digest's run section, never used for throughput numbers.
    let mut ctx = LegalizeCtx::with_trace(TraceBuf::default());
    let mut traced_state = PlacementState::new(design);
    legalizer
        .legalize_parallel_with(design, &mut traced_state, threads, &mut ctx)
        .expect("traced legalization");
    let trace = ctx.trace.expect("the context was built with a trace");
    let metrics = ctx.stats.metrics_summary(design.name(), &trace);
    let metrics_json =
        Json::parse(&metrics.to_json_string()).expect("metrics summary emits parseable JSON");

    let mut benchmark = Json::obj();
    benchmark.set("name", design.name());
    benchmark.set("movable_cells", design.num_movable() as i64);
    benchmark.set("density", design.density());
    benchmark.set("seed", seed as i64);

    let mut root = Json::obj();
    root.set("benchmark", benchmark);
    root.set("threads", threads as i64);
    root.set(
        "sequential",
        run_to_json(design, &point.seq_stats, &point.seq_state),
    );
    root.set(
        "parallel",
        run_to_json(design, &point.par_stats, &point.par_state),
    );
    root.set("speedup", point.speedup);
    root.set("prune_ratio", prune_ratio(&point.seq_stats));
    root.set("metrics", metrics_json);
    root
}

/// Cell count for `--util-sweep` points: big enough that escalation-tier
/// engagement at 0.9 utilization is structural rather than a fluke, small
/// enough that the 0.9 point (retry rounds + tier work) stays in seconds.
const UTIL_SWEEP_CELLS: usize = 4_000;

/// The `--util-sweep` protocol: one sequential run per utilization over a
/// witness-backed design (a known-legal placement exists by construction,
/// so a sub-100% placement rate is always the legalizer's fault). Entries
/// carry the per-tier escalation counters — the dense points are the
/// benchmark surface for the escalation ladder.
fn run_util_sweep(utils: &[f64], seed: u64, lcfg: &LegalizerConfig) -> Vec<Json> {
    let mut points = Vec::new();
    for &u in utils {
        let wcfg = WitnessConfig::new(seed)
            .with_cells(UTIL_SWEEP_CELLS)
            .with_utilization(u);
        let witness = generate_witness(&wcfg).expect("witness generation");
        let design = witness.design;
        let mut state = PlacementState::new(&design);
        let stats = Legalizer::new(lcfg.clone())
            .legalize(&design, &mut state)
            .expect("utilization-sweep legalization");
        let placed_rate = stats.placed as f64 / (design.num_movable() as f64).max(1.0);
        let esc = stats.escalation;
        println!(
            "util {:.2}:  {:.3}s, {:.1}% placed, escalated {} (ripple {}, repack {}, ilp {})",
            u,
            stats.wall.as_secs_f64(),
            placed_rate * 100.0,
            esc.engaged,
            esc.ripple_placed,
            esc.repack_placed,
            esc.ilp_placed
        );
        let mut entry = run_to_json(&design, &stats, &state);
        entry.set("utilization", u);
        entry.set("movable_cells", design.num_movable() as i64);
        entry.set("placement_rate", placed_rate);
        points.push(entry);
    }
    points
}

#[allow(clippy::too_many_arguments)]
fn run_sweep(
    counts: &[usize],
    density: f64,
    seed: u64,
    threads: usize,
    available: usize,
    lcfg: &LegalizerConfig,
    json_path: Option<&str>,
    baseline: Option<&str>,
    gate_pct: f64,
    speedup_gate: bool,
    util_points: Option<Vec<Json>>,
) {
    let mut trajectory: Vec<Json> = Vec::new();
    let mut gate_sections: Option<Json> = None;
    let mut gate_throughput: Option<f64> = None;
    let mut last_speedup = 1.0f64;

    for &n in counts {
        let full = n <= FULL_PROTOCOL_MAX_CELLS;
        let spec = adhoc_spec(n, density);
        let gen_cfg = GeneratorConfig::default().with_seed(seed);
        let gen_start = std::time::Instant::now();
        let design = generate(&spec, &gen_cfg).expect("generate benchmark");
        let gen_s = gen_start.elapsed().as_secs_f64();
        let point = single_point(&design, lcfg, threads, full);
        let rss = peak_rss_mb();
        if let Some(mb) = rss {
            println!("peak rss:   {mb:.0} MB after the {n}-cell point");
        }

        let mut entry = Json::obj();
        entry.set("cells", n as i64);
        entry.set("movable_cells", design.num_movable() as i64);
        entry.set("density", design.density());
        entry.set("generate_s", gen_s);
        entry.set(
            "sequential",
            run_to_json(&design, &point.seq_stats, &point.seq_state),
        );
        entry.set(
            "parallel",
            run_to_json(&design, &point.par_stats, &point.par_state),
        );
        entry.set("speedup", point.speedup);
        match rss {
            Some(mb) => entry.set("peak_rss_mb", mb),
            None => entry.set("peak_rss_mb", Json::Null),
        };
        trajectory.push(entry);
        last_speedup = point.speedup;

        // The smallest full-protocol point doubles as the standard report
        // so `--baseline` gates keep reading `sequential.cells_per_sec`.
        if full && gate_sections.is_none() {
            gate_sections = Some(full_report(&design, lcfg, seed, threads, &point));
            gate_throughput = Some(point.seq_stats.placed as f64 / point.seq_wall.max(1e-12));
        }
    }

    if let Some(path) = json_path {
        let mut root = gate_sections.unwrap_or_else(|| {
            let mut r = Json::obj();
            r.set("threads", threads as i64);
            r
        });
        root.set("available_parallelism", available as i64);
        root.set("trajectory", trajectory);
        if let Some(points) = util_points {
            root.set("util_sweep", points);
        }
        std::fs::write(path, root.pretty()).expect("write json report");
        eprintln!("report written to {path}");
    }

    check_speedup_gate(speedup_gate, last_speedup, threads, available);
    if let Some(baseline_path) = baseline {
        match gate_throughput {
            Some(current) => gate_against_baseline(baseline_path, current, gate_pct),
            None => eprintln!(
                "gate:       skipped (no sweep point at or below {FULL_PROTOCOL_MAX_CELLS} cells)"
            ),
        }
    }
}

/// The `--speedup-gate` assertion: parallel must beat sequential by 1.3x,
/// enforced only when the machine actually has >= 4 CPUs and the run used
/// >= 4 threads; otherwise the gate reports itself skipped.
fn check_speedup_gate(enabled: bool, speedup: f64, threads: usize, available: usize) {
    if !enabled {
        return;
    }
    if available < 4 || threads < 4 {
        eprintln!(
            "speedup:    gate skipped — {available} CPUs available, {threads} threads \
             requested (needs >= 4 of each for the 1.3x floor to be meaningful)"
        );
        return;
    }
    if speedup < 1.3 {
        eprintln!("speedup:    FAIL — {speedup:.2}x on {threads} threads is below the 1.3x floor");
        std::process::exit(1);
    }
    eprintln!("speedup:    ok — {speedup:.2}x on {threads} threads (floor 1.3x)");
}

/// Compares sequential throughput against a committed baseline report and
/// exits non-zero on a regression beyond `gate_pct` percent. Honors
/// `MRL_BENCH_SKIP_GATE=1` for machines unlike the baseline's.
fn gate_against_baseline(path: &str, current_cells_per_sec: f64, gate_pct: f64) {
    if std::env::var("MRL_BENCH_SKIP_GATE").is_ok_and(|v| v == "1") {
        eprintln!("gate:       skipped (MRL_BENCH_SKIP_GATE=1)");
        return;
    }
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
    let report = Json::parse(&text).unwrap_or_else(|e| panic!("cannot parse baseline {path}: {e}"));
    let base = report
        .get("sequential")
        .and_then(|s| s.get("cells_per_sec"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("baseline {path} has no sequential.cells_per_sec"));
    let floor = base * (1.0 - gate_pct / 100.0);
    if current_cells_per_sec < floor {
        eprintln!(
            "gate:       FAIL — sequential {current_cells_per_sec:.0} cells/s is more than \
             {gate_pct:.0}% below the baseline {base:.0} cells/s (floor {floor:.0})"
        );
        std::process::exit(1);
    }
    eprintln!(
        "gate:       ok — sequential {current_cells_per_sec:.0} cells/s vs baseline \
         {base:.0} cells/s (floor {floor:.0})"
    );
}
