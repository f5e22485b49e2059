//! Occupancy-index microbench: the DESIGN.md §9 cache-resident layout
//! (interleaved extent keys in CSR arenas) on the operations the
//! legalizer actually issues — point queries, window queries, and
//! insert/remove churn — against a dense 10k-cell segment. Every probe
//! walks one contiguous extent array per `partition_point`.

use mrl_bench::timer::Bench;
use mrl_db::{CellId, Design, DesignBuilder, PlacementState, SegId};
use mrl_geom::SitePoint;

/// Cells packed onto the benched segment.
const SEGMENT_CELLS: usize = 10_000;
/// Site pitch between cell origins (cell width 3 + 1 slack site).
const PITCH: i32 = 4;
/// Queries folded into one timed sample, spread over the segment by an
/// LCG so the probe x is unpredictable and spans the whole array.
const QUERIES_PER_SAMPLE: usize = 1024;

/// One row holding `SEGMENT_CELLS` width-3 cells at every `PITCH` sites.
fn dense_segment() -> (Design, PlacementState, SegId, Vec<CellId>) {
    let width = SEGMENT_CELLS as i32 * PITCH + PITCH;
    let mut b = DesignBuilder::new(1, width);
    let ids: Vec<CellId> = (0..SEGMENT_CELLS)
        .map(|i| b.add_cell(format!("c{i}"), 3, 1))
        .collect();
    let design = b.finish().expect("valid single-row design");
    let mut state = PlacementState::new(&design);
    for (i, &id) in ids.iter().enumerate() {
        state
            .place(&design, id, SitePoint::new(i as i32 * PITCH, 0))
            .expect("spaced placement");
    }
    let seg = state.segment_at(&design, 0, 0).expect("one segment");
    (design, state, seg, ids)
}

/// Deterministic LCG over `[0, span)` — cheap enough to vanish next to
/// the measured probe.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self, span: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) % span
    }
}

/// `cells_intersecting` over a 1-site window: the point probe issued per
/// candidate position during insertion-point enumeration.
fn bench_point_query() {
    let b = Bench::new("index_point_query");
    let (_, state, seg, _) = dense_segment();
    let span = (SEGMENT_CELLS as i32 * PITCH) as u64;
    b.run("dense_10k", || {
        let mut rng = Lcg(42);
        let mut acc = 0usize;
        for _ in 0..QUERIES_PER_SAMPLE {
            let x = rng.next(span) as i32;
            acc += state.cells_intersecting(seg, x, x + 1).len();
        }
        acc
    });
}

/// 64-site window queries — the extraction pattern: the intersecting
/// cells plus the clipped free gaps of the window.
fn bench_window_query() {
    let b = Bench::new("index_window_query");
    const WINDOW: i32 = 64;
    let (_, state, seg, _) = dense_segment();
    let span = (SEGMENT_CELLS as i32 * PITCH - WINDOW) as u64;
    b.run("dense_10k", || {
        let mut rng = Lcg(7);
        let mut acc = 0usize;
        for _ in 0..QUERIES_PER_SAMPLE {
            let x = rng.next(span) as i32;
            acc += state.cells_intersecting(seg, x, x + WINDOW).len();
            acc += state.free_gaps_in(seg, x, x + WINDOW).len();
        }
        acc
    });
}

/// Remove + re-place churn at random list positions — the mutation path
/// (arena `copy_within` inside a segment's block).
fn bench_insert_remove() {
    let b = Bench::new("index_insert_remove");
    const CHURNS_PER_SAMPLE: usize = 256;
    let (design, mut state, _, ids) = dense_segment();
    b.run("dense_10k", || {
        let mut rng = Lcg(1234);
        for _ in 0..CHURNS_PER_SAMPLE {
            let cell = ids[rng.next(ids.len() as u64) as usize];
            let at = state.remove(&design, cell).expect("placed");
            state.place(&design, cell, at).expect("same slot is free");
        }
        state.num_placed()
    });
}

fn main() {
    bench_point_query();
    bench_window_query();
    bench_insert_remove();
}
