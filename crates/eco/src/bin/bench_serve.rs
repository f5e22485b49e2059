//! ECO serving benchmark: incremental vs full re-legalization wall time,
//! request throughput, and per-batch latency percentiles across batch
//! sizes, plus one point of 16-insert batches (buffer insertion). Writes
//! `BENCH_serve.json` for the CI gate.

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use mrl_bench::json::Json;
use mrl_db::{CellId, Design, PlacementState};
use mrl_eco::{EcoConfig, EcoSession, Edit, EditBatch};
use mrl_geom::PowerRail;
use mrl_legalize::{Legalizer, LegalizerConfig};
use mrl_synth::{generate_witness, WitnessConfig};
use mrl_trace::Hist;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const USAGE: &str = "\
bench_serve: benchmark the incremental ECO engine against full re-legalization

USAGE:
    bench_serve [OPTIONS]

OPTIONS:
    --cells N        witness size in movable cells (default 64000)
    --batches N      edit batches per batch-size sweep point (default 200)
    --seed N         witness + stream RNG seed (default 42)
    --json FILE      write the results as JSON to FILE
    --gate RATIO     exit nonzero unless incremental is at least RATIO x
                     faster than full re-legalization at batch size <= 16
    -h, --help       print this help
";

struct Args {
    cells: usize,
    batches: usize,
    seed: u64,
    json: Option<String>,
    gate: Option<f64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        cells: 64_000,
        batches: 200,
        seed: 42,
        json: None,
        gate: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut take = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--cells" => {
                args.cells = take("--cells")?
                    .parse()
                    .map_err(|e| format!("--cells: {e}"))?
            }
            "--batches" => {
                args.batches = take("--batches")?
                    .parse()
                    .map_err(|e| format!("--batches: {e}"))?;
            }
            "--seed" => {
                args.seed = take("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--json" => args.json = Some(take("--json")?),
            "--gate" => {
                args.gate = Some(
                    take("--gate")?
                        .parse()
                        .map_err(|e| format!("--gate: {e}"))?,
                )
            }
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// A random point within 20 sites and 3 rows of `(x, y)`, clamped to the
/// core.
fn near(design: &Design, rng: &mut SmallRng, (x, y): (f64, f64)) -> (f64, f64) {
    let bounds = design.floorplan().bounds();
    let dx: f64 = rng.gen_range(-20.0..20.0);
    let dy: f64 = rng.gen_range(-3.0..3.0);
    (
        (x + dx).clamp(f64::from(bounds.x), f64::from(bounds.right() - 1)),
        (y + dy).clamp(f64::from(bounds.y), f64::from(bounds.top() - 1)),
    )
}

/// A random small edit over the base movable cells: mostly local moves,
/// some resizes, the serving mix the paper motivates (Section 1's
/// incremental use).
fn random_edit(design: &Design, rng: &mut SmallRng, movables: &[CellId]) -> Edit {
    let cell = movables[rng.gen_range(0..movables.len())];
    let input = design.input_position(cell);
    if rng.gen_range(0..10) < 8 {
        let (x, y) = near(design, rng, input);
        Edit::Move { cell, x, y }
    } else {
        let w = design.cell(cell).width();
        let new_w = if rng.gen_range(0..2) == 0 {
            w + 1
        } else {
            (w - 1).max(1)
        };
        Edit::Resize { cell, width: new_w }
    }
}

/// A random buffer insertion: a one-row cell of 1 to 3 sites near a base
/// movable cell's input position.
fn random_insert(design: &Design, rng: &mut SmallRng, movables: &[CellId], serial: usize) -> Edit {
    let input = design.input_position(movables[rng.gen_range(0..movables.len())]);
    let (x, y) = near(design, rng, input);
    Edit::Insert {
        name: format!("eco_buf_{serial}"),
        width: rng.gen_range(1..4),
        height: 1,
        rail: PowerRail::Vdd,
        x,
        y,
    }
}

fn percentile(sorted_us: &[u64], p: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let idx = ((sorted_us.len() as f64 - 1.0) * p).round() as usize;
    sorted_us[idx.min(sorted_us.len() - 1)]
}

struct SweepPoint {
    batch_size: usize,
    batches: usize,
    applied: u64,
    rejected: u64,
    wall_s: f64,
    req_per_s: f64,
    p50_us: u64,
    p90_us: u64,
    p99_us: u64,
    /// The session telemetry's log2 batch-latency histogram, in the same
    /// bucket encoding mrl-metrics-v1 uses.
    latency_hist: Hist,
}

impl SweepPoint {
    /// Full re-legalization time over this point's mean batch time.
    fn speedup_vs_full(&self, full_s: f64) -> f64 {
        full_s / (self.wall_s / self.batches as f64).max(1e-9)
    }

    fn to_json(&self, full_s: f64) -> Json {
        let mut pj = Json::obj();
        pj.set("batch_size", self.batch_size)
            .set("batches", self.batches)
            .set("applied", self.applied)
            .set("rejected", self.rejected)
            .set("wall_s", self.wall_s)
            .set("req_per_s", self.req_per_s)
            .set("p50_us", self.p50_us)
            .set("p90_us", self.p90_us)
            .set("p99_us", self.p99_us)
            .set("latency_hist", hist_json(&self.latency_hist))
            .set("speedup_vs_full", self.speedup_vs_full(full_s));
        pj
    }
}

/// Renders a histogram in the mrl-metrics-v1 encoding:
/// `{"count":N,"sum":N,"buckets":[...]}` with log2 bucket edges.
fn hist_json(h: &Hist) -> Json {
    let mut j = Json::obj();
    j.set("count", h.count).set("sum", h.sum).set(
        "buckets",
        Json::Arr(h.buckets.iter().map(|&b| Json::from(b)).collect()),
    );
    j
}

/// An edit generator: the session's current design, the point's RNG, and
/// a serial number unique within the point.
type Draw<'a> = &'a dyn Fn(&Design, &mut SmallRng, usize) -> Edit;

/// Replays `batches` batches of `batch_size` drawn edits through a fresh
/// session on the legalized base.
fn sweep_point(
    design: &Design,
    state: &PlacementState,
    lcfg: &LegalizerConfig,
    (batch_size, batches): (usize, usize),
    seed: u64,
    draw: Draw<'_>,
) -> SweepPoint {
    let mut session = EcoSession::new(
        design.clone(),
        state.clone(),
        lcfg.clone(),
        EcoConfig::default(),
    );
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut lat_us: Vec<u64> = Vec::with_capacity(batches);
    let mut applied = 0u64;
    let mut rejected = 0u64;
    let sweep_t = Instant::now();
    for i in 0..batches {
        let edits: Vec<Edit> = (0..batch_size)
            .map(|k| draw(session.design(), &mut rng, i * batch_size + k))
            .collect();
        let batch = EditBatch {
            id: i as u64,
            edits,
        };
        let stats = session.apply_batch(&batch).expect("apply");
        lat_us.push(u64::try_from(stats.wall.as_micros()).unwrap_or(u64::MAX));
        if stats.applied {
            applied += 1;
        } else {
            rejected += 1;
        }
    }
    let wall_s = sweep_t.elapsed().as_secs_f64();
    lat_us.sort_unstable();
    // The session telemetry recorded the same batches; its log2 histogram
    // ships with the sweep point so dashboards read the exact shape, not
    // just three exact-percentile cuts.
    let latency_hist = session
        .telemetry()
        .to_metrics_summary("bench")
        .extras
        .into_iter()
        .find(|(name, _)| name == "serve_batch_latency_us")
        .map(|(_, h)| h)
        .expect("telemetry exports serve_batch_latency_us");
    assert_eq!(
        latency_hist.count, batches as u64,
        "telemetry latency histogram must cover every batch"
    );
    SweepPoint {
        batch_size,
        batches,
        applied,
        rejected,
        wall_s,
        req_per_s: batches as f64 / wall_s.max(1e-9),
        p50_us: percentile(&lat_us, 0.50),
        p90_us: percentile(&lat_us, 0.90),
        p99_us: percentile(&lat_us, 0.99),
        latency_hist,
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    eprintln!(
        "generating {}-cell witness (seed {})...",
        args.cells, args.seed
    );
    let witness = generate_witness(
        &WitnessConfig::new(args.seed)
            .with_cells(args.cells)
            .with_utilization(0.7),
    )
    .expect("witness generation");
    let design = witness.design;
    let lcfg = LegalizerConfig::default();
    let legalizer = Legalizer::new(lcfg.clone());

    let mut state = PlacementState::new(&design);
    let t0 = Instant::now();
    legalizer
        .legalize(&design, &mut state)
        .expect("base legalization");
    let base_wall = t0.elapsed();
    eprintln!(
        "base legalization: {} cells in {:.3}s",
        args.cells,
        base_wall.as_secs_f64()
    );

    // Full re-legalization baseline: what one ECO costs without the
    // incremental engine — wipe the placement and legalize from scratch.
    let full_runs = 3usize;
    let mut full_total = 0.0f64;
    for _ in 0..full_runs {
        let mut fresh = PlacementState::new(&design);
        let t = Instant::now();
        legalizer
            .legalize(&design, &mut fresh)
            .expect("full re-legalization");
        full_total += t.elapsed().as_secs_f64();
    }
    let full_s = full_total / full_runs as f64;
    eprintln!("full re-legalization baseline: {full_s:.3}s (mean of {full_runs})");

    let movables: Vec<CellId> = design.movable_cells().collect();
    let sweep = |label: &str, batch_size: usize, seed: u64, draw: Draw<'_>| {
        let p = sweep_point(
            &design,
            &state,
            &lcfg,
            (batch_size, args.batches),
            seed,
            draw,
        );
        eprintln!(
            "{label} batch={batch_size:>3}: {:8.1} req/s  p50={}us p90={}us p99={}us  \
             incremental-vs-full {:.1}x  ({} applied, {} rejected)",
            p.req_per_s,
            p.p50_us,
            p.p90_us,
            p.p99_us,
            p.speedup_vs_full(full_s),
            p.applied,
            p.rejected,
        );
        p
    };
    let mix = |d: &Design, rng: &mut SmallRng, _: usize| random_edit(d, rng, &movables);
    let points: Vec<SweepPoint> = [1usize, 16, 256]
        .into_iter()
        .map(|b| sweep("move/resize", b, args.seed ^ 0x9e37_79b9 ^ b as u64, &mix))
        .collect();
    let ratio_at_16 = points
        .iter()
        .filter(|p| p.batch_size <= 16)
        .map(|p| p.speedup_vs_full(full_s))
        .fold(f64::INFINITY, f64::min);
    // Buffer insertion: every edit appends a cell, so this point is where
    // the per-insert cost of the design's bookkeeping shows.
    let inserts =
        |d: &Design, rng: &mut SmallRng, serial: usize| random_insert(d, rng, &movables, serial);
    let insert_point = sweep("insert", 16, args.seed ^ 0x1a5e_27ed, &inserts);

    let mut j = Json::obj();
    j.set("bench", "serve")
        .set("cells", args.cells)
        .set("seed", args.seed)
        .set("base_legalize_s", base_wall.as_secs_f64())
        .set("full_relegalize_s", full_s)
        .set("incremental_vs_full_at_16", ratio_at_16)
        .set(
            "sweep",
            Json::Arr(points.iter().map(|p| p.to_json(full_s)).collect()),
        )
        .set("insert_batch_16", insert_point.to_json(full_s));
    // A stable summary map for quick `jq`-less reading.
    let mut by_size = BTreeMap::new();
    for p in &points {
        by_size.insert(format!("{}", p.batch_size), Json::Num(p.req_per_s));
    }
    j.set("req_per_s_by_batch_size", Json::Obj(by_size));

    println!("{}", j.pretty());
    if let Some(path) = &args.json {
        std::fs::write(path, j.pretty()).expect("write json");
        eprintln!("wrote {path}");
    }

    if let Some(gate) = args.gate {
        if ratio_at_16 < gate {
            eprintln!(
                "GATE FAILED: incremental-vs-full ratio {ratio_at_16:.2} < required {gate:.2}"
            );
            return ExitCode::FAILURE;
        }
        eprintln!("gate passed: {ratio_at_16:.2}x >= {gate:.2}x");
    }
    ExitCode::SUCCESS
}
