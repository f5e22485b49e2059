//! Automatic test-case reduction.
//!
//! Once the matrix flags a discrepancy, the raw witness (often hundreds of
//! cells) is useless as a bug report. The shrinker applies three families
//! of semantics-preserving edits — remove cells, unperturb inputs back to
//! their witness positions, trim the floorplan — keeping an edit only when
//! [`reproduces`] confirms the *same* discrepancy kind survives. The result
//! is a minimal reproducer small enough to read and commit to
//! `tests/corpus/`.
//!
//! The strategy is ddmin-flavored: delete exponentially shrinking chunks of
//! the cell list until single-cell removal no longer helps, then simplify
//! what remains. Every oracle call re-runs the full matrix, which is cheap
//! at shrunk sizes; a call budget bounds the worst case.

use crate::matrix::{reproduces, DiscrepancyKind, MatrixOptions};
use crate::scenario::Scenario;

/// Outcome counters for one shrink run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShrinkStats {
    /// Oracle (matrix) invocations spent.
    pub oracle_calls: u32,
    /// Cells in the original scenario.
    pub cells_before: usize,
    /// Cells in the reduced scenario.
    pub cells_after: usize,
}

struct Shrinker<'a> {
    opts: &'a MatrixOptions,
    kind: DiscrepancyKind,
    budget: u32,
    calls: u32,
}

impl Shrinker<'_> {
    /// Oracle with budget accounting: `None` means out of budget.
    fn check(&mut self, cand: &Scenario) -> Option<bool> {
        if self.calls >= self.budget {
            return None;
        }
        self.calls += 1;
        Some(reproduces(cand, self.opts, self.kind))
    }

    /// One ddmin sweep over the cell list. Returns true when anything was
    /// removed.
    fn remove_cells(&mut self, s: &mut Scenario) -> bool {
        let mut removed_any = false;
        let mut chunk = (s.cells.len() / 2).max(1);
        loop {
            let mut start = 0;
            while start < s.cells.len() {
                let end = (start + chunk).min(s.cells.len());
                let mut cand = s.clone();
                cand.cells.drain(start..end);
                match self.check(&cand) {
                    None => return removed_any,
                    Some(true) => {
                        *s = cand;
                        removed_any = true;
                        // Retry the same window: the next chunk slid into it.
                    }
                    Some(false) => start = end,
                }
            }
            if chunk == 1 {
                return removed_any;
            }
            chunk = (chunk / 2).max(1);
        }
    }

    /// Moves input positions back onto the witness placement (zero
    /// perturbation) wherever the discrepancy survives it. A reproducer
    /// whose only perturbed cells are the essential ones reads much better.
    fn unperturb(&mut self, s: &mut Scenario) -> bool {
        let mut changed = false;
        for i in 0..s.cells.len() {
            let Some(p) = s.cells[i].legal else { continue };
            let legal_input = (f64::from(p.x), f64::from(p.y));
            if s.cells[i].input == legal_input {
                continue;
            }
            let mut cand = s.clone();
            cand.cells[i].input = legal_input;
            match self.check(&cand) {
                None => return changed,
                Some(true) => {
                    *s = cand;
                    changed = true;
                }
                Some(false) => {}
            }
        }
        changed
    }

    /// Shrinks the floorplan: halve-then-decrement the row count and row
    /// width toward the tightest box that still reproduces.
    fn trim_floorplan(&mut self, s: &mut Scenario) -> bool {
        let mut changed = false;
        // Row count first (rows are the expensive dimension to read).
        loop {
            let mut cand = s.clone();
            cand.num_rows = (cand.num_rows / 2).max(1);
            if cand.num_rows == s.num_rows {
                break;
            }
            match self.check(&cand) {
                Some(true) => {
                    *s = cand;
                    changed = true;
                }
                _ => break,
            }
        }
        loop {
            if s.num_rows <= 1 {
                break;
            }
            let mut cand = s.clone();
            cand.num_rows -= 1;
            match self.check(&cand) {
                Some(true) => {
                    *s = cand;
                    changed = true;
                }
                _ => break,
            }
        }
        loop {
            let mut cand = s.clone();
            cand.row_width = (cand.row_width / 2).max(1);
            if cand.row_width == s.row_width {
                break;
            }
            match self.check(&cand) {
                Some(true) => {
                    *s = cand;
                    changed = true;
                }
                _ => break,
            }
        }
        loop {
            if s.row_width <= 1 {
                break;
            }
            let mut cand = s.clone();
            cand.row_width -= 1;
            match self.check(&cand) {
                Some(true) => {
                    *s = cand;
                    changed = true;
                }
                _ => break,
            }
        }
        // Macros: drop any the bug does not need.
        let mut k = 0;
        while k < s.macros.len() {
            let mut cand = s.clone();
            cand.macros.remove(k);
            match self.check(&cand) {
                Some(true) => {
                    *s = cand;
                    changed = true;
                }
                _ => k += 1,
            }
        }
        changed
    }
}

/// Reduces `scenario` to a (locally) minimal case still exhibiting `kind`.
///
/// `budget` bounds the number of matrix re-runs; 400 is plenty for
/// fuzz-sized cases. The input is returned unchanged when it does not
/// reproduce at all (defensive: the caller races nothing, but a flaky
/// discrepancy must not be "shrunk" into an unrelated scenario).
pub fn shrink(
    scenario: &Scenario,
    opts: &MatrixOptions,
    kind: DiscrepancyKind,
    budget: u32,
) -> (Scenario, ShrinkStats) {
    let mut stats = ShrinkStats {
        cells_before: scenario.cells.len(),
        ..ShrinkStats::default()
    };
    let mut sh = Shrinker {
        opts,
        kind,
        budget,
        calls: 0,
    };
    let mut s = scenario.clone();
    if sh.check(&s) != Some(true) {
        stats.oracle_calls = sh.calls;
        stats.cells_after = s.cells.len();
        return (s, stats);
    }
    // Fixpoint over the three edit families.
    loop {
        let mut progress = false;
        progress |= sh.remove_cells(&mut s);
        progress |= sh.unperturb(&mut s);
        progress |= sh.trim_floorplan(&mut s);
        if !progress || sh.calls >= sh.budget {
            break;
        }
    }
    stats.oracle_calls = sh.calls;
    stats.cells_after = s.cells.len();
    (s, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Fault;
    use mrl_synth::{generate_witness, WitnessConfig};

    #[test]
    fn injected_fault_shrinks_to_a_handful_of_cells() {
        let w = generate_witness(&WitnessConfig::new(3).with_cells(40)).unwrap();
        let s = Scenario::from_witness(&w);
        let mut opts = MatrixOptions::new(3);
        opts.fault = Some(Fault::ThreadOffByOne);
        opts.baselines = false;
        assert!(reproduces(&s, &opts, DiscrepancyKind::ThreadMismatch));
        let (small, stats) = shrink(&s, &opts, DiscrepancyKind::ThreadMismatch, 400);
        assert!(
            small.cells.len() <= 12,
            "expected ≤12 cells, got {} ({stats:?})",
            small.cells.len()
        );
        assert!(reproduces(&small, &opts, DiscrepancyKind::ThreadMismatch));
        assert!(stats.cells_after < stats.cells_before);
    }

    #[test]
    fn non_reproducing_input_is_returned_unchanged() {
        let w = generate_witness(&WitnessConfig::new(9).with_cells(20)).unwrap();
        let s = Scenario::from_witness(&w);
        let opts = MatrixOptions::new(9);
        let (same, stats) = shrink(&s, &opts, DiscrepancyKind::ThreadMismatch, 50);
        assert_eq!(same.cells.len(), s.cells.len());
        assert_eq!(stats.oracle_calls, 1);
    }
}
