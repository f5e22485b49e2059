//! In-process layer ledger for the perfbench benchmark.
//!
//! Each subcommand calls the same public functions `mrl legalize` and
//! `mrl serve` call, in the same order and with the same configuration,
//! times every call, and prints one JSON object on stdout:
//!
//! ```text
//! perfbench-probe batch   --aux FILE --out DIR
//! perfbench-probe edits   --aux FILE --seed N --requests K --edits E --out FILE
//! perfbench-probe session --aux FILE --stream FILE
//! ```
//!
//! `batch` is `mrl legalize --aux FILE --out DIR` with a timer around each
//! layer; its `.pl` must be byte-identical to the CLI's. `edits` writes the
//! seeded ECO request stream. `session` replays a stream through the same
//! `EcoSession` `mrl serve` builds, so its responses (without `wall_us`)
//! must equal the server's.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use mrl_bench::json::Json;
use mrl_db::{CellId, Design, PlacementState};
use mrl_eco::stream::{parse_batch_line, stats_to_line, stream_to_ndjson};
use mrl_eco::{EcoConfig, EcoSession, Edit, EditBatch};
use mrl_legalize::{LegalizeStats, Legalizer, LegalizerConfig};
use mrl_metrics::{check_legal, displacement_stats, hpwl_change, RailCheck};
use mrl_parsers::bookshelf;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const USAGE: &str = "\
usage: perfbench-probe batch   --aux FILE --out DIR
       perfbench-probe edits   --aux FILE --seed N --requests K --edits E --out FILE
       perfbench-probe session --aux FILE --stream FILE";

#[derive(Default)]
struct Args {
    aux: Option<PathBuf>,
    out: Option<PathBuf>,
    stream: Option<PathBuf>,
    seed: u64,
    requests: usize,
    edits: usize,
}

fn parse_args(rest: &[String]) -> Result<Args, String> {
    let mut a = Args::default();
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|_| format!("bad {flag} {v}"));
        match flag.as_str() {
            "--aux" => a.aux = Some(PathBuf::from(val)),
            "--out" => a.out = Some(PathBuf::from(val)),
            "--stream" => a.stream = Some(PathBuf::from(val)),
            "--seed" => a.seed = num(val)?,
            "--requests" => a.requests = num(val)? as usize,
            "--edits" => a.edits = num(val)? as usize,
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(a)
}

fn required<'a>(p: &'a Option<PathBuf>, flag: &str) -> Result<&'a Path, String> {
    p.as_deref().ok_or_else(|| format!("{flag} is required"))
}

/// Runs `f` and returns its result with the elapsed seconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let v = f();
    (v, t.elapsed().as_secs_f64())
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The configuration `mrl legalize` and `mrl serve` use without flags.
fn cli_config() -> LegalizerConfig {
    LegalizerConfig::paper().with_seed(1)
}

fn read(aux: &Path) -> Result<(Design, f64), String> {
    let (design, s) = timed(|| bookshelf::read(aux));
    Ok((
        design.map_err(|e| format!("cannot read {}: {e}", aux.display()))?,
        s,
    ))
}

/// The base legalization, with the driver's own phase ledger.
fn legalize(design: &Design, state: &mut PlacementState) -> Result<(LegalizeStats, f64), String> {
    let (stats, s) = timed(|| Legalizer::new(cli_config()).legalize(design, state));
    Ok((stats.map_err(|e| format!("legalization failed: {e}"))?, s))
}

fn legalize_json(stats: &LegalizeStats, call_s: f64) -> Json {
    let p = &stats.phases;
    let e = &stats.escalation;
    let mut j = Json::obj();
    j.set("call_s", call_s)
        .set("wall_s", stats.wall.as_secs_f64())
        .set("extract_s", p.extract.as_secs_f64())
        .set("extract_calls", p.extract_calls)
        .set("enumerate_s", p.enumerate.as_secs_f64())
        .set("enumerate_calls", p.enumerate_calls)
        .set("evaluate_s", p.evaluate.as_secs_f64())
        .set("evaluate_calls", p.evaluate_calls)
        .set("realize_s", p.realize.as_secs_f64())
        .set("realize_calls", p.realize_calls)
        .set("retry_s", p.retry.as_secs_f64())
        .set("retry_calls", p.retry_rounds)
        .set("escalate_s", p.escalate.as_secs_f64())
        .set("combos_generated", p.combos_generated)
        .set("combos_evaluated", p.combos_evaluated)
        .set("direct_cells", stats.direct)
        .set("mll_cells", stats.via_mll)
        .set("escalate_engaged", e.engaged)
        .set("ripple_chains", e.ripple_chains)
        .set("ripple_rolled_back", e.ripple_rolled_back)
        .set("ilp_solves", e.ilp_solves);
    j
}

/// Legality check plus the quality figures `mrl legalize` prints.
fn check_and_quality(design: &Design, state: &PlacementState, j: &mut Json) -> Result<(), String> {
    let (checked, check_s) = timed(|| check_legal(design, state, RailCheck::Enforce));
    checked.map_err(|r| format!("placement failed verification:\n{r}"))?;
    let ((disp, hpwl), quality_s) = timed(|| {
        (
            displacement_stats(design, state),
            hpwl_change(design, state),
        )
    });
    j.set("check_s", check_s)
        .set("quality_s", quality_s)
        .set("avg_disp_sites", disp.avg_sites)
        .set("hpwl_delta_pct", hpwl.delta() * 100.0);
    Ok(())
}

/// `mrl legalize --aux FILE --out DIR`, one timer per layer.
fn batch(a: &Args) -> Result<Json, String> {
    let (design, read_s) = read(required(&a.aux, "--aux")?)?;
    let (mut state, build_s) = timed(|| PlacementState::new(&design));
    let (stats, legalize_s) = legalize(&design, &mut state)?;
    let mut j = Json::obj();
    check_and_quality(&design, &state, &mut j)?;
    let out = required(&a.out, "--out")?;
    let (written, write_s) = timed(|| {
        let positions = (0..design.num_cells())
            .map(|i| state.position_or_input(&design, CellId::from_usize(i)))
            .collect();
        let placed = design.with_input_positions(positions);
        bookshelf::write(&placed, out, design.name())
    });
    written.map_err(|e| format!("cannot write bookshelf: {e}"))?;
    j.set("read_s", read_s)
        .set("state_build_s", build_s)
        .set("write_s", write_s)
        .set("legalize", legalize_json(&stats, legalize_s));
    Ok(j)
}

/// One request's edit: 80% moves within ±20 sites and ±3 rows of the
/// cell's input position, clamped so the cell stays inside the core; 20%
/// resizes by one site.
fn random_edit(design: &Design, rng: &mut SmallRng, movables: &[CellId]) -> Edit {
    let cell = movables[rng.gen_range(0..movables.len())];
    let c = design.cell(cell);
    let (x, y) = design.input_position(cell);
    if rng.gen_range(0..10) < 8 {
        let b = design.floorplan().bounds();
        let dx: f64 = rng.gen_range(-20.0..20.0);
        let dy: f64 = rng.gen_range(-3.0..3.0);
        Edit::Move {
            cell,
            x: (x + dx).clamp(f64::from(b.x), f64::from(b.right() - c.width())),
            y: (y + dy).clamp(f64::from(b.y), f64::from(b.top() - c.height())),
        }
    } else {
        let w = c.width();
        let width = if rng.gen_range(0..2) == 0 {
            w + 1
        } else {
            (w - 1).max(1)
        };
        Edit::Resize { cell, width }
    }
}

fn edits(a: &Args) -> Result<Json, String> {
    let (design, _) = read(required(&a.aux, "--aux")?)?;
    let movables: Vec<CellId> = design.movable_cells().collect();
    if movables.is_empty() || a.requests == 0 || a.edits == 0 {
        return Err("need movable cells, --requests and --edits".into());
    }
    let mut rng = SmallRng::seed_from_u64(a.seed);
    let batches: Vec<EditBatch> = (0..a.requests)
        .map(|id| EditBatch {
            id: id as u64,
            edits: (0..a.edits)
                .map(|_| random_edit(&design, &mut rng, &movables))
                .collect(),
        })
        .collect();
    let out = required(&a.out, "--out")?;
    std::fs::write(out, stream_to_ndjson(&batches))
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    let mut j = Json::obj();
    j.set("requests", a.requests).set("edits", a.edits);
    Ok(j)
}

/// `mrl serve --aux FILE` without the socket: the same set-up, then every
/// request line through `parse_batch_line`, `apply_batch` and
/// `stats_to_line`, each timed on its own.
fn session(a: &Args) -> Result<Json, String> {
    let path = required(&a.stream, "--stream")?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let (design, read_s) = read(required(&a.aux, "--aux")?)?;
    let (mut state, build_s) = timed(|| PlacementState::new(&design));
    let (stats, legalize_s) = legalize(&design, &mut state)?;
    let (mut session, new_s) = timed(|| {
        EcoSession::new(
            design,
            state,
            cli_config(),
            EcoConfig::default().with_max_induced_disp(None),
        )
    });

    let (mut parse_us, mut apply_us, mut serialize_us, mut responses) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for line in text.lines().map(str::trim).filter(|l| !l.is_empty()) {
        let t = Instant::now();
        let batch = parse_batch_line(line)?;
        parse_us.push(Json::from(micros(t.elapsed())));
        let t = Instant::now();
        let stats = session
            .apply_batch(&batch)
            .map_err(|e| format!("request {}: {e}", batch.id))?;
        apply_us.push(Json::from(micros(t.elapsed())));
        let t = Instant::now();
        let line = stats_to_line(&stats, true);
        serialize_us.push(Json::from(micros(t.elapsed())));
        std::hint::black_box(line);
        responses.push(Json::from(stats_to_line(&stats, false)));
    }

    let mut j = Json::obj();
    check_and_quality(session.design(), session.state(), &mut j)?;
    j.set("read_s", read_s)
        .set("state_build_s", build_s)
        .set("session_new_s", new_s)
        .set("legalize", legalize_json(&stats, legalize_s))
        .set("parse_us", Json::Arr(parse_us))
        .set("apply_us", Json::Arr(apply_us))
        .set("serialize_us", Json::Arr(serialize_us))
        .set("responses", Json::Arr(responses));
    Ok(j)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = parse_args(rest).and_then(|a| match cmd.as_str() {
        "batch" => batch(&a),
        "edits" => edits(&a),
        "session" => session(&a),
        other => Err(format!("unknown command {other}\n{USAGE}")),
    });
    match result {
        Ok(j) => {
            println!("{}", j.compact());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench-probe: {e}");
            ExitCode::FAILURE
        }
    }
}
