//! Chrome Trace Event Format export (the JSON array flavour, which
//! `chrome://tracing` and Perfetto both accept).
//!
//! Span begin/end pairs are matched per lane (LIFO) and emitted as
//! complete `"X"` events; a begin with no matching end (e.g. truncated by
//! the lane capacity) degrades to a raw `"B"` event, an orphaned end to
//! `"E"`. Counters and attempt records are emitted as zero-duration `"X"`
//! events whose `args` carry the payload, so the whole file is an array of
//! `ph:"X"/"B"/"E"` events with `pid`/`tid`/`ts`/`dur`/`name` — the subset
//! every Trace Event consumer understands. `tid` is the *lane* (stripe
//! index + 1; 0 = sequential/retry pass), not a physical thread id, which
//! is what makes the export stable across `--threads N`.

use crate::buf::{TraceBuf, TraceEvent};
use crate::record::AttemptOutcome;
use std::fmt::Write as _;

/// Microseconds with nanosecond precision, the unit Trace Event expects.
fn us(ts_ns: u64) -> f64 {
    ts_ns as f64 / 1e3
}

fn push_common(out: &mut String, name: &str, ph: char, tid: u32, ts_ns: u64) {
    let _ = write!(
        out,
        "{{\"name\":\"{name}\",\"cat\":\"mll\",\"ph\":\"{ph}\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3}",
        us(ts_ns)
    );
}

impl TraceBuf {
    /// Serializes the trace as a Chrome Trace Event JSON array.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(self.len() * 96 + 2);
        out.push('[');
        let mut first = true;
        let mut sep = |out: &mut String| {
            if first {
                first = false;
            } else {
                out.push_str(",\n");
            }
        };
        // Per-lane stacks of pending Begin events (event text deferred
        // until the matching End supplies the duration).
        let mut stacks: Vec<(u32, Vec<(u64, crate::Phase)>)> = Vec::new();
        let stack_of = |stacks: &mut Vec<(u32, Vec<(u64, crate::Phase)>)>, lane: u32| {
            if let Some(i) = stacks.iter().position(|&(l, _)| l == lane) {
                i
            } else {
                stacks.push((lane, Vec::new()));
                stacks.len() - 1
            }
        };
        for &(lane, ev) in self.events() {
            match ev {
                TraceEvent::Begin { ts_ns, phase } => {
                    let i = stack_of(&mut stacks, lane);
                    stacks[i].1.push((ts_ns, phase));
                }
                TraceEvent::End { ts_ns, phase } => {
                    let i = stack_of(&mut stacks, lane);
                    // LIFO match; tolerate interleaving by searching for
                    // the innermost begin of the same phase.
                    let found = stacks[i].1.iter().rposition(|&(_, p)| p == phase);
                    match found {
                        Some(j) => {
                            let (t0, _) = stacks[i].1.remove(j);
                            sep(&mut out);
                            push_common(&mut out, phase.name(), 'X', lane, t0);
                            let _ = write!(
                                out,
                                ",\"dur\":{:.3},\"args\":{{}}}}",
                                us(ts_ns.saturating_sub(t0))
                            );
                        }
                        None => {
                            sep(&mut out);
                            push_common(&mut out, phase.name(), 'E', lane, ts_ns);
                            out.push('}');
                        }
                    }
                }
                TraceEvent::Counter { ts_ns, name, value } => {
                    sep(&mut out);
                    push_common(&mut out, name, 'X', lane, ts_ns);
                    let _ = write!(out, ",\"dur\":0.0,\"args\":{{\"value\":{value}}}}}");
                }
                TraceEvent::Attempt { ts_ns, rec } => {
                    sep(&mut out);
                    push_common(&mut out, "attempt", 'X', lane, ts_ns);
                    let _ = write!(
                        out,
                        ",\"dur\":0.0,\"args\":{{\"cell\":{},\"height\":{},\"retry_round\":{},\
                         \"window\":[{},{},{},{}],\"region_cells\":{},\
                         \"combos_generated\":{},\"combos_pruned\":{},\"combos_evaluated\":{},\
                         \"outcome\":\"{}\"",
                        rec.cell,
                        rec.height,
                        rec.retry_round,
                        rec.window[0],
                        rec.window[1],
                        rec.window[2],
                        rec.window[3],
                        rec.region_cells,
                        rec.combos_generated,
                        rec.combos_pruned,
                        rec.combos_evaluated,
                        rec.outcome.label(),
                    );
                    match rec.outcome {
                        AttemptOutcome::Direct { x, y } => {
                            let _ = write!(out, ",\"x\":{x},\"y\":{y}");
                        }
                        AttemptOutcome::Mll { x, y, cost } => {
                            let _ = write!(out, ",\"x\":{x},\"y\":{y},\"cost\":{cost:.3}");
                        }
                        AttemptOutcome::Fail(_) => {}
                    }
                    out.push_str("}}");
                }
            }
        }
        // Truncated spans (begin recorded, end dropped at lane capacity).
        for (lane, stack) in stacks {
            for (ts_ns, phase) in stack {
                sep(&mut out);
                push_common(&mut out, phase.name(), 'B', lane, ts_ns);
                out.push('}');
            }
        }
        out.push_str("]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{AttemptRecord, FailReason};
    use crate::{Phase, PhaseTimes, Probe};
    use std::time::Instant;

    #[test]
    fn paired_spans_become_complete_events() {
        let mut buf = TraceBuf::new(64);
        let mut lane = Some(buf.lane(3));
        let mut phases = PhaseTimes::default();
        let outer = Probe::open(Phase::Enumerate, &mut lane);
        Probe::open(Phase::Evaluate, &mut lane).close(&mut phases, &mut lane);
        outer.close(&mut phases, &mut lane);
        buf.absorb(lane.unwrap());
        let json = buf.to_chrome_json();
        assert!(json.starts_with('['));
        assert!(json.trim_end().ends_with(']'));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"name\":\"evaluate\""));
        assert!(json.contains("\"tid\":3"));
        assert!(!json.contains("\"ph\":\"B\""));
    }

    #[test]
    fn orphans_degrade_to_b_and_e_events() {
        let mut buf = TraceBuf::new(64);
        buf.begin(Phase::Extract, Instant::now()); // never ended
        buf.end(Phase::Realize, Instant::now()); // never begun
        let json = buf.to_chrome_json();
        assert_eq!(json.matches("\"ph\":\"B\"").count(), 1);
        assert_eq!(json.matches("\"ph\":\"E\"").count(), 1);
    }

    #[test]
    fn attempts_and_counters_carry_args() {
        let mut buf = TraceBuf::new(64);
        let mut s = buf.lane(1);
        s.counter("residue", 7);
        s.attempt(AttemptRecord {
            cell: 42,
            height: 2,
            retry_round: 3,
            window: [-5, 0, 20, 4],
            region_cells: 6,
            combos_generated: 10,
            combos_pruned: 4,
            combos_evaluated: 6,
            outcome: crate::AttemptOutcome::Fail(FailReason::RegionExtractionEmpty),
        });
        buf.absorb(s);
        let json = buf.to_chrome_json();
        assert!(json.contains("\"value\":7"));
        assert!(json.contains("\"cell\":42"));
        assert!(json.contains("\"outcome\":\"region-extraction-empty\""));
        assert!(json.contains("\"window\":[-5,0,20,4]"));
    }
}
