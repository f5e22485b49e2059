//! The lane-tagged trace recorder and the events it holds.

use crate::phase::Phase;
use crate::record::AttemptRecord;
use std::time::Instant;

/// One recorded trace event, timestamped in nanoseconds since the owning
/// [`TraceBuf`]'s epoch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TraceEvent {
    /// Span open.
    Begin {
        /// Nanoseconds since the trace epoch.
        ts_ns: u64,
        /// Span kind.
        phase: Phase,
    },
    /// Span close (matches the innermost open `Begin` of the same phase).
    End {
        /// Nanoseconds since the trace epoch.
        ts_ns: u64,
        /// Span kind.
        phase: Phase,
    },
    /// Counter sample.
    Counter {
        /// Nanoseconds since the trace epoch.
        ts_ns: u64,
        /// Counter name.
        name: &'static str,
        /// Sampled value.
        value: u64,
    },
    /// Per-cell placement attempt.
    Attempt {
        /// Nanoseconds since the trace epoch.
        ts_ns: u64,
        /// The record.
        rec: AttemptRecord,
    },
}

impl TraceEvent {
    /// The event timestamp in nanoseconds since the trace epoch.
    pub const fn ts_ns(&self) -> u64 {
        match *self {
            TraceEvent::Begin { ts_ns, .. }
            | TraceEvent::End { ts_ns, .. }
            | TraceEvent::Counter { ts_ns, .. }
            | TraceEvent::Attempt { ts_ns, .. } => ts_ns,
        }
    }
}

/// A trace recorder tagged with a *lane*, holding its own events and those
/// of every lane it absorbed.
///
/// Lanes are logical threads: the parallel driver records stripe `i` into
/// a fork for lane `i + 1` ([`TraceBuf::lane`]) and the sequential driver
/// and retry pass into the caller's recorder (lane 0 for
/// [`TraceBuf::new`]). Finished lanes are appended with
/// [`TraceBuf::absorb`] in a deterministic order — the parallel driver
/// uses (parity, stripe) order, then records its residue pass last — so
/// the sequence of `(lane, event)` pairs, everything but the timestamps,
/// is a pure function of the stripe schedule and identical for any worker
/// thread count.
///
/// A recorder keeps at most `lane_capacity` events of its own. Once full
/// it drops new events (never old ones, so span nesting stays intact from
/// the start) and counts them in [`TraceBuf::dropped`]. Absorbed events do
/// not count against the capacity.
#[derive(Debug)]
pub struct TraceBuf {
    lane: u32,
    epoch: Instant,
    lane_capacity: usize,
    /// Events this recorder recorded itself (the capacity's measure).
    recorded: usize,
    events: Vec<(u32, TraceEvent)>,
    dropped: u64,
}

impl TraceBuf {
    /// Default per-lane event capacity (2^20 events of 96 bytes, about
    /// 100 MB at worst).
    pub const DEFAULT_LANE_CAPACITY: usize = 1 << 20;

    /// An empty lane-0 recorder whose lanes hold at most `lane_capacity`
    /// events each. The epoch (timestamp zero) is the moment of
    /// construction.
    pub fn new(lane_capacity: usize) -> Self {
        TraceBuf {
            lane: 0,
            epoch: Instant::now(),
            lane_capacity: lane_capacity.max(1),
            recorded: 0,
            events: Vec::new(),
            dropped: 0,
        }
    }

    /// Forks an empty recorder for `lane` with this recorder's epoch and
    /// capacity.
    pub fn lane(&self, lane: u32) -> TraceBuf {
        TraceBuf {
            lane,
            events: Vec::new(),
            recorded: 0,
            dropped: 0,
            ..*self
        }
    }

    /// Appends a finished lane's events and drop count. Call in a
    /// deterministic lane order.
    pub fn absorb(&mut self, lane: TraceBuf) {
        self.dropped += lane.dropped;
        self.events.extend(lane.events);
    }

    /// The `(lane, event)` sequence in recording and absorption order.
    pub fn events(&self) -> &[(u32, TraceEvent)] {
        &self.events
    }

    /// Total events held, own and absorbed.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events dropped at capacity, own and absorbed.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The attempt records, in order.
    pub fn attempts(&self) -> impl Iterator<Item = &AttemptRecord> + '_ {
        self.events.iter().filter_map(|(_, ev)| match ev {
            TraceEvent::Attempt { rec, .. } => Some(rec),
            _ => None,
        })
    }

    /// Samples a named counter value now.
    pub fn counter(&mut self, name: &'static str, value: u64) {
        let ts_ns = self.ts_ns(Instant::now());
        self.push(TraceEvent::Counter { ts_ns, name, value });
    }

    /// Records one placement attempt now.
    pub fn attempt(&mut self, rec: AttemptRecord) {
        let ts_ns = self.ts_ns(Instant::now());
        self.push(TraceEvent::Attempt { ts_ns, rec });
    }

    /// Opens a span of `phase` at `at` (spans come from
    /// [`crate::Probe`]).
    #[inline]
    pub(crate) fn begin(&mut self, phase: Phase, at: Instant) {
        let ts_ns = self.ts_ns(at);
        self.push(TraceEvent::Begin { ts_ns, phase });
    }

    /// Closes the innermost open span of `phase` at `at`.
    #[inline]
    pub(crate) fn end(&mut self, phase: Phase, at: Instant) {
        let ts_ns = self.ts_ns(at);
        self.push(TraceEvent::End { ts_ns, phase });
    }

    #[inline]
    fn ts_ns(&self, at: Instant) -> u64 {
        // u64 nanoseconds cover ~584 years of trace; the cast is safe.
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    #[inline]
    fn push(&mut self, ev: TraceEvent) {
        if self.recorded < self.lane_capacity {
            self.recorded += 1;
            self.events.push((self.lane, ev));
        } else {
            self.dropped += 1;
        }
    }
}

impl Default for TraceBuf {
    fn default() -> Self {
        TraceBuf::new(TraceBuf::DEFAULT_LANE_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{AttemptOutcome, FailReason};

    fn rec(cell: u32) -> AttemptRecord {
        AttemptRecord {
            cell,
            height: 1,
            retry_round: 0,
            window: [0, 0, 10, 2],
            region_cells: 3,
            combos_generated: 4,
            combos_pruned: 1,
            combos_evaluated: 3,
            outcome: AttemptOutcome::Fail(FailReason::NoInsertionPoint),
        }
    }

    #[test]
    fn lane_records_in_order_and_drops_at_capacity() {
        let buf = TraceBuf::new(3);
        let mut s = buf.lane(7);
        s.begin(Phase::Enumerate, Instant::now());
        s.counter("combos", 5);
        s.end(Phase::Enumerate, Instant::now());
        s.attempt(rec(1)); // over capacity: dropped
        assert_eq!(s.len(), 3);
        assert_eq!(s.dropped(), 1);
        assert!(s.events().iter().all(|&(lane, _)| lane == 7));
        assert!(matches!(s.events()[0].1, TraceEvent::Begin { .. }));
        assert!(matches!(s.events()[2].1, TraceEvent::End { .. }));
    }

    #[test]
    fn absorbed_events_do_not_count_against_capacity() {
        let mut buf = TraceBuf::new(2);
        let mut a = buf.lane(1);
        a.attempt(rec(1));
        a.attempt(rec(2));
        a.attempt(rec(3)); // dropped in lane 1
        buf.absorb(a);
        buf.attempt(rec(4));
        buf.attempt(rec(5));
        buf.attempt(rec(6)); // dropped in lane 0
        let cells: Vec<(u32, u32)> = buf
            .events()
            .iter()
            .filter_map(|&(lane, ev)| match ev {
                TraceEvent::Attempt { rec, .. } => Some((lane, rec.cell)),
                _ => None,
            })
            .collect();
        assert_eq!(cells, vec![(1, 1), (1, 2), (0, 4), (0, 5)]);
        assert_eq!(buf.dropped(), 2);
    }

    #[test]
    fn absorb_merges_lanes_in_call_order() {
        let mut buf = TraceBuf::new(16);
        let mut a = buf.lane(2);
        let mut b = buf.lane(1);
        a.attempt(rec(10));
        b.attempt(rec(20));
        // Stripe order, not lane-numeric order, decides.
        buf.absorb(a);
        buf.absorb(b);
        let lanes: Vec<u32> = buf.events().iter().map(|&(l, _)| l).collect();
        assert_eq!(lanes, vec![2, 1]);
        let cells: Vec<u32> = buf.attempts().map(|r| r.cell).collect();
        assert_eq!(cells, vec![10, 20]);
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.dropped(), 0);
        assert!(!buf.is_empty());
    }

    #[test]
    fn timestamps_are_monotonic_within_a_lane() {
        let buf = TraceBuf::new(64);
        let mut s = buf.lane(0);
        for _ in 0..10 {
            s.begin(Phase::Extract, Instant::now());
            s.counter("x", 1);
            s.end(Phase::Extract, Instant::now());
        }
        let ts: Vec<u64> = s.events().iter().map(|(_, e)| e.ts_ns()).collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]));
    }
}
