//! Quality ablations over the design choices DESIGN.md calls out:
//!
//! * `--what eval`      — approximate vs exact insertion-point evaluation
//!   (Section 5.2: the paper claims the neighbor-only approximation is
//!   "accurate enough"; quantify the displacement gap and the speedup),
//! * `--what window`    — the local window half-extents Rx/Ry (the paper
//!   fixes Rx = 30, Ry = 5),
//! * `--what order`     — Algorithm 1's "arbitrary" cell order,
//! * `--what baselines` — MLL vs Abacus-two-step vs greedy Tetris,
//! * `--what refine`    — MLL alone vs MLL + optimal fixed-order row
//!   re-packing (refs. \[8\]/\[9\] adapted to multi-row barriers).
//!
//! ```text
//! ablation [--what eval|window|order|baselines|refine|all]
//!          [--scale N] [--seed S]
//! ```

use mrl_bench::{run_method, Method};
use mrl_db::{Design, PlacementState};
use mrl_legalize::{CellOrder, EvalMode, Legalizer, LegalizerConfig};
use mrl_metrics::{check_legal, displacement_stats, RailCheck, Table};
use mrl_synth::{generate, ispd2015_suite, GeneratorConfig};
use std::time::Instant;

fn main() {
    let mut what = String::from("all");
    let mut scale = 20.0f64;
    let mut seed = 1u64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut val = |n: &str| args.next().unwrap_or_else(|| panic!("{n} needs a value"));
        match arg.as_str() {
            "--what" => what = val("--what"),
            "--scale" => scale = val("--scale").parse().expect("numeric --scale"),
            "--seed" => seed = val("--seed").parse().expect("numeric --seed"),
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    // Two contrasting densities from the suite.
    let designs: Vec<Design> = ["fft_1", "fft_2"]
        .iter()
        .map(|name| {
            let spec = ispd2015_suite()
                .into_iter()
                .find(|s| s.name == *name)
                .expect("known benchmark");
            generate(
                &spec,
                &GeneratorConfig::default().with_scale(scale).with_seed(seed),
            )
            .expect("generate")
        })
        .collect();

    if what == "eval" || what == "all" {
        ablate_eval(&designs, seed);
    }
    if what == "window" || what == "all" {
        ablate_window(&designs, seed);
    }
    if what == "order" || what == "all" {
        ablate_order(&designs, seed);
    }
    if what == "baselines" || what == "all" {
        ablate_baselines(&designs, seed);
    }
    if what == "refine" || what == "all" {
        ablate_refine(&designs, seed);
    }
}

fn measure(design: &Design, cfg: LegalizerConfig) -> (f64, f64, bool) {
    let mut state = PlacementState::new(design);
    let t0 = Instant::now();
    let ok = Legalizer::new(cfg).legalize(design, &mut state).is_ok();
    let secs = t0.elapsed().as_secs_f64();
    let legal = ok && check_legal(design, &state, RailCheck::Enforce).is_ok();
    (displacement_stats(design, &state).avg_sites, secs, legal)
}

fn ablate_eval(designs: &[Design], seed: u64) {
    println!("== insertion point evaluation: approximate (paper) vs exact ==");
    let mut t = Table::new(&["benchmark", "density", "mode", "disp", "time(s)"]);
    for d in designs {
        for (label, mode) in [
            ("approx", EvalMode::Approximate),
            ("exact", EvalMode::Exact),
        ] {
            let cfg = LegalizerConfig::paper()
                .with_eval_mode(mode)
                .with_seed(seed);
            let (disp, secs, legal) = measure(d, cfg);
            assert!(legal, "illegal result in ablation");
            t.row(&[
                d.name().to_string(),
                format!("{:.2}", d.density()),
                label.to_string(),
                format!("{disp:.3}"),
                format!("{secs:.3}"),
            ]);
        }
    }
    println!("{t}");
}

fn ablate_window(designs: &[Design], seed: u64) {
    println!("== window size (paper: Rx=30, Ry=5) ==");
    let mut t = Table::new(&["benchmark", "Rx", "Ry", "disp", "time(s)"]);
    for d in designs {
        for (rx, ry) in [(10, 2), (20, 3), (30, 5), (60, 8), (90, 12)] {
            let cfg = LegalizerConfig::paper().with_window(rx, ry).with_seed(seed);
            let (disp, secs, legal) = measure(d, cfg);
            t.row(&[
                d.name().to_string(),
                rx.to_string(),
                ry.to_string(),
                if legal {
                    format!("{disp:.3}")
                } else {
                    "fail".into()
                },
                format!("{secs:.3}"),
            ]);
        }
    }
    println!("{t}");
}

fn ablate_order(designs: &[Design], seed: u64) {
    println!("== cell order (Algorithm 1 visits cells 'in an arbitrary order') ==");
    let mut t = Table::new(&["benchmark", "order", "disp", "time(s)"]);
    for d in designs {
        for order in [
            CellOrder::Input,
            CellOrder::ByX,
            CellOrder::ByAreaDesc,
            CellOrder::Shuffled,
        ] {
            let cfg = LegalizerConfig::paper().with_order(order).with_seed(seed);
            let (disp, secs, legal) = measure(d, cfg);
            t.row(&[
                d.name().to_string(),
                format!("{order:?}"),
                if legal {
                    format!("{disp:.3}")
                } else {
                    "fail".into()
                },
                format!("{secs:.3}"),
            ]);
        }
    }
    println!("{t}");
}

fn ablate_refine(designs: &[Design], seed: u64) {
    println!("== MLL vs MLL + optimal row re-packing ==");
    let mut t = Table::new(&[
        "benchmark",
        "density",
        "disp MLL",
        "disp +refine",
        "cells moved",
    ]);
    for d in designs {
        let mut state = PlacementState::new(d);
        Legalizer::new(LegalizerConfig::paper().with_seed(seed))
            .legalize(d, &mut state)
            .expect("legalize");
        let before = displacement_stats(d, &state).avg_sites;
        let stats = mrl_legalize::refine_rows(d, &mut state).expect("refine");
        assert!(check_legal(d, &state, RailCheck::Enforce).is_ok());
        let after = displacement_stats(d, &state).avg_sites;
        t.row(&[
            d.name().to_string(),
            format!("{:.2}", d.density()),
            format!("{before:.3}"),
            format!("{after:.3}"),
            stats.moved.to_string(),
        ]);
    }
    println!("{t}");
}

fn ablate_baselines(designs: &[Design], seed: u64) {
    println!("== MLL vs classic legalizers ==");
    let mut t = Table::new(&[
        "benchmark",
        "density",
        "method",
        "disp",
        "time(s)",
        "status",
    ]);
    for d in designs {
        for method in [
            Method::Mll,
            Method::IlpOracle,
            Method::Abacus,
            Method::Tetris,
        ] {
            let r = run_method(d, method, true, seed);
            t.row(&[
                d.name().to_string(),
                format!("{:.2}", d.density()),
                method.label().to_string(),
                format!("{:.3}", r.disp_sites),
                format!("{:.3}", r.runtime_s),
                if r.failed {
                    "FAILED".into()
                } else if r.legal {
                    "legal".into()
                } else {
                    "ILLEGAL".into()
                },
            ]);
        }
    }
    println!("{t}");
}
