//! Reusable per-worker scratch memory for the MLL kernel.
//!
//! One MLL attempt runs extract → enumerate → evaluate over buffers whose
//! sizes are bounded by the local window, and the drivers run millions of
//! attempts back to back. A [`ScratchArena`] owns every transient buffer
//! the enumeration/evaluation kernel needs — interval lists, scanline
//! events, pairing queues, combination stacks, the branch-and-bound
//! candidate pool, and the critical-position vectors — so that after the
//! first few attempts warm the capacities, the steady-state kernel performs
//! **zero heap allocations** in release builds. Debug builds also check
//! every insertion-point search against `enumerate_insertion_points`,
//! which scores on a fresh arena of its own.
//!
//! Ownership rules (also documented in DESIGN.md §6):
//!
//! * An arena lives in a [`crate::LegalizeCtx`], one per thread, next to
//!   the run's statistics and optional trace; every MLL-level operation takes
//!   that context. The sequential driver uses the caller's for its whole
//!   run, retry loop included; each parallel-stripe worker keeps one arena
//!   for the stripes it claims; the ECO session keeps one across batches.
//!   Arenas are never shared.
//! * Only `Legalizer::legalize` and `Legalizer::legalize_parallel` build a
//!   context of their own; every other caller passes one in, so there is
//!   no per-call convenience wrapper that starts from a cold arena.
//! * The arena carries no results: every buffer is dead between kernel
//!   calls and is cleared (not shrunk) on entry. Callers must not read an
//!   arena after the call that filled it returns.

use crate::interval::InsInterval;
use crate::region::{ExtractScratch, LocalRegion};
use std::cmp::Ordering;

/// One scanline event: an interval endpoint.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ScanEvent {
    /// Endpoint x-coordinate.
    pub x: i32,
    /// True for a right (closing) endpoint.
    pub close: bool,
    /// Index of the interval in the arena's interval buffer.
    pub idx: u32,
}

/// A generated insertion-point combination awaiting exact evaluation,
/// keyed by its admissible displacement lower bound.
///
/// `Ord` is **reversed** so that [`std::collections::BinaryHeap`] (a
/// max-heap) pops the smallest `(bound, key)` first; `key` ranks the
/// candidates in scanline emission order and makes the order — and
/// therefore the search result — fully deterministic.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Candidate {
    /// Admissible lower bound on the combination's total cost.
    pub bound: f64,
    /// Tie-break key, unique within one search and ordered like the
    /// scanline emission rank (the order in which the enumeration's first
    /// minimum wins ties): the rank itself, or for a one-row target
    /// `(range.lo, interval index)` packed into one integer.
    pub key: u64,
    /// Local bottom row of the spanned window.
    pub bottom_row: u32,
    /// Start of the combination's `target.h` interval ids in
    /// [`ScratchArena::pool`].
    pub pool_start: u32,
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Candidate {}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .bound
            .total_cmp(&self.bound)
            .then_with(|| other.key.cmp(&self.key))
    }
}

/// Scratch buffers for [`crate::evaluate`]: hinge breakpoints and the
/// chain-propagation state of the exact evaluator.
#[derive(Debug, Default)]
pub(crate) struct EvalScratch {
    /// Left-side critical positions (`x^a`), plus the target term.
    pub a: Vec<i64>,
    /// Right-side critical positions (`x^b`), plus the target term.
    pub b: Vec<i64>,
    /// Per-local-cell membership of the left push set.
    pub in_left: Vec<bool>,
    /// Per-local-cell membership of the right push set.
    pub in_right: Vec<bool>,
    /// DFS stack for the neighbor-DAG closures.
    pub stack: Vec<u32>,
    /// Resolved `x^a` per local cell (`i64::MIN` = unresolved).
    pub xa: Vec<i64>,
    /// Resolved `x^b` per local cell (`i64::MAX` = unresolved).
    pub xb: Vec<i64>,
}

/// Reusable buffers for one thread's MLL kernel calls. See the module docs
/// for the ownership rules.
#[derive(Debug, Default)]
pub struct ScratchArena {
    /// Insertion intervals of the current region/target.
    pub(crate) intervals: Vec<InsInterval>,
    /// Scanline endpoint events over `intervals` (not built for a
    /// best-first one-row search).
    pub(crate) events: Vec<ScanEvent>,
    /// Per-window-bottom-row power-rail feasibility.
    pub(crate) rail_ok: Vec<bool>,
    /// Pairing queues `Q[a][s]`, flattened to `a * height + s`. Inner
    /// vectors keep their capacity across calls.
    pub(crate) queues: Vec<Vec<u32>>,
    /// DFS stack of interval ids forming the combination under
    /// construction.
    pub(crate) combo: Vec<u32>,
    /// The current combination materialized for the evaluators.
    pub(crate) combo_buf: Vec<InsInterval>,
    /// Flat storage of generated combinations (`target.h` ids each; for a
    /// one-row target, interval `i`'s own id at slot `i`).
    pub(crate) pool: Vec<u32>,
    /// Branch-and-bound candidates; doubles as the binary heap's backing
    /// storage so the heap itself allocates nothing in steady state.
    pub(crate) cands: Vec<Candidate>,
    /// The incumbent best combination's interval ids.
    pub(crate) best_combo: Vec<u32>,
    /// Evaluator scratch.
    pub(crate) eval: EvalScratch,
    /// The reusable local region (SoA buffers kept warm across MLL calls).
    pub(crate) region: LocalRegion,
    /// Extraction scratch (inside-cell map, interval buffers, chosen runs).
    pub(crate) extract: ExtractScratch,
}

impl ScratchArena {
    /// An empty arena; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BinaryHeap;

    fn cand(bound: f64, key: u64) -> Candidate {
        Candidate {
            bound,
            key,
            bottom_row: 0,
            pool_start: 0,
        }
    }

    #[test]
    fn heap_pops_smallest_bound_then_earliest_emission() {
        let mut heap =
            BinaryHeap::from(vec![cand(2.0, 0), cand(1.0, 3), cand(1.0, 1), cand(0.5, 7)]);
        let order: Vec<(f64, u64)> = std::iter::from_fn(|| heap.pop())
            .map(|c| (c.bound, c.key))
            .collect();
        assert_eq!(order, vec![(0.5, 7), (1.0, 1), (1.0, 3), (2.0, 0)]);
    }

    #[test]
    fn arena_buffers_keep_capacity_after_clear() {
        let mut arena = ScratchArena::new();
        arena.pool.extend_from_slice(&[1, 2, 3, 4]);
        let cap = arena.pool.capacity();
        arena.pool.clear();
        assert!(arena.pool.capacity() >= cap);
        assert!(arena.pool.is_empty());
    }
}
