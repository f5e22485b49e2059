//! The statically dispatched event sink, the ring-buffer recorder, and the
//! deterministic merge buffer.

use crate::phase::Phase;
use crate::record::AttemptRecord;
use std::time::Instant;

/// A statically dispatched trace-event consumer.
///
/// Pipeline kernels are generic over `S: Sink` and guard every event
/// emission (including the *construction* of the event payload) with
/// `if S::ENABLED { … }`. For [`NoopSink`] that constant is `false`, the
/// branch folds away at monomorphization, and the traced kernel compiles
/// to the identical machine code as the untraced one — verified by the
/// bench harness's throughput gate and `benches/trace.rs`.
///
/// All methods have no-op defaults so sinks only override what they
/// record.
pub trait Sink {
    /// Whether this sink observes anything. Call sites use this constant
    /// to skip event construction entirely.
    const ENABLED: bool;

    /// Opens a span of `phase`. Spans nest (evaluate inside enumerate,
    /// everything inside a retry round) and close in LIFO order per lane.
    #[inline]
    fn begin(&mut self, phase: Phase) {
        let _ = phase;
    }

    /// Closes the innermost open span of `phase`.
    #[inline]
    fn end(&mut self, phase: Phase) {
        let _ = phase;
    }

    /// Samples a named counter value at the current time.
    #[inline]
    fn counter(&mut self, name: &'static str, value: u64) {
        let _ = (name, value);
    }

    /// Records one placement attempt.
    #[inline]
    fn attempt(&mut self, rec: AttemptRecord) {
        let _ = rec;
    }
}

/// The disabled sink: `ENABLED = false`, every method a no-op. This is
/// what every pre-existing public entry point instantiates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NoopSink;

impl Sink for NoopSink {
    const ENABLED: bool = false;
}

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

/// A bounded recording sink tagged with a *lane*.
///
/// Lanes are logical threads: the parallel driver uses `stripe index + 1`
/// and the sequential / retry pass lane 0, so lane assignment — and with
/// it the merged event sequence — is independent of the physical thread
/// count. When the buffer is full new events are dropped (never old ones,
/// so span nesting stays intact from the start) and counted in
/// [`RingSink::dropped`].
#[derive(Clone, Debug)]
pub struct RingSink {
    lane: u32,
    epoch: Instant,
    capacity: usize,
    events: Vec<TraceEvent>,
    dropped: u64,
}

impl RingSink {
    /// A recording sink for `lane` holding at most `capacity` events,
    /// timestamping against `epoch` (share one epoch across lanes so
    /// timestamps are comparable).
    pub fn new(lane: u32, capacity: usize, epoch: Instant) -> Self {
        RingSink {
            lane,
            epoch,
            capacity: capacity.max(1),
            events: Vec::new(),
            dropped: 0,
        }
    }

    /// The lane tag.
    pub fn lane(&self) -> u32 {
        self.lane
    }

    /// Events recorded so far.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events discarded because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    #[inline]
    fn push(&mut self, ev: TraceEvent) {
        if self.events.len() < self.capacity {
            self.events.push(ev);
        } else {
            self.dropped += 1;
        }
    }

    #[inline]
    fn now_ns(&self) -> u64 {
        // u64 nanoseconds cover ~584 years of trace; the cast is safe.
        self.epoch.elapsed().as_nanos() as u64
    }
}

impl Sink for RingSink {
    const ENABLED: bool = true;

    #[inline]
    fn begin(&mut self, phase: Phase) {
        let ts_ns = self.now_ns();
        self.push(TraceEvent::Begin { ts_ns, phase });
    }

    #[inline]
    fn end(&mut self, phase: Phase) {
        let ts_ns = self.now_ns();
        self.push(TraceEvent::End { ts_ns, phase });
    }

    #[inline]
    fn counter(&mut self, name: &'static str, value: u64) {
        let ts_ns = self.now_ns();
        self.push(TraceEvent::Counter { ts_ns, name, value });
    }

    #[inline]
    fn attempt(&mut self, rec: AttemptRecord) {
        let ts_ns = self.now_ns();
        self.push(TraceEvent::Attempt { ts_ns, rec });
    }
}

/// The merged trace: per-lane [`RingSink`]s absorbed in a deterministic
/// order (the parallel driver absorbs in stripe order at the wave
/// barrier, the sequential pass last).
///
/// Because lanes are stripe indices and absorption order is stripe order,
/// the sequence of `(lane, event)` pairs — everything except the
/// timestamps inside the events — is a pure function of the stripe
/// schedule: identical for any worker-thread count.
#[derive(Debug)]
pub struct TraceBuf {
    epoch: Instant,
    lane_capacity: usize,
    events: Vec<(u32, TraceEvent)>,
    dropped: u64,
}

impl TraceBuf {
    /// Default per-lane event capacity (~1M events ≈ 48 MB worst case).
    pub const DEFAULT_LANE_CAPACITY: usize = 1 << 20;

    /// An empty trace whose lanes hold at most `lane_capacity` events.
    /// The epoch (timestamp zero) is the moment of construction.
    pub fn new(lane_capacity: usize) -> Self {
        TraceBuf {
            epoch: Instant::now(),
            lane_capacity: lane_capacity.max(1),
            events: Vec::new(),
            dropped: 0,
        }
    }

    /// The shared timestamp epoch.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// The per-lane capacity new lanes are created with.
    pub fn lane_capacity(&self) -> usize {
        self.lane_capacity
    }

    /// A fresh recording sink for `lane`, sharing this trace's epoch.
    pub fn lane(&self, lane: u32) -> RingSink {
        RingSink::new(lane, self.lane_capacity, self.epoch)
    }

    /// Appends a lane's events. Call in a deterministic lane order.
    pub fn absorb(&mut self, sink: RingSink) {
        self.dropped += sink.dropped;
        let lane = sink.lane;
        self.events
            .extend(sink.events.into_iter().map(|ev| (lane, ev)));
    }

    /// The merged `(lane, event)` sequence in absorption order.
    pub fn events(&self) -> &[(u32, TraceEvent)] {
        &self.events
    }

    /// Total events across all absorbed lanes.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total events dropped across all absorbed lanes.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The attempt records, in absorption order.
    pub fn attempts(&self) -> impl Iterator<Item = &AttemptRecord> + '_ {
        self.events.iter().filter_map(|(_, ev)| match ev {
            TraceEvent::Attempt { rec, .. } => Some(rec),
            _ => None,
        })
    }
}

/// A collector the parallel driver fans out into one sink per lane and
/// merges back in a deterministic lane order.
pub trait LaneSink {
    /// The sink one lane (one stripe, or the driver's lane 0) records into.
    type Lane: Sink + Send;

    /// A fresh sink for `lane`.
    fn lane(&self, lane: u32) -> Self::Lane;

    /// Appends a finished lane. Call in a deterministic lane order.
    fn absorb(&mut self, lane: Self::Lane);
}

impl LaneSink for NoopSink {
    type Lane = NoopSink;

    fn lane(&self, _lane: u32) -> NoopSink {
        NoopSink
    }

    fn absorb(&mut self, _lane: NoopSink) {}
}

impl LaneSink for TraceBuf {
    type Lane = RingSink;

    fn lane(&self, lane: u32) -> RingSink {
        TraceBuf::lane(self, lane)
    }

    fn absorb(&mut self, lane: RingSink) {
        TraceBuf::absorb(self, lane);
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
    fn noop_sink_is_enabled_false() {
        const { assert!(!NoopSink::ENABLED) };
        let mut s = NoopSink;
        s.begin(Phase::Extract);
        s.end(Phase::Extract);
        s.counter("x", 1);
        s.attempt(rec(0));
    }

    #[test]
    fn ring_records_in_order_and_drops_at_capacity() {
        let buf = TraceBuf::new(3);
        let mut s = buf.lane(7);
        s.begin(Phase::Enumerate);
        s.counter("combos", 5);
        s.end(Phase::Enumerate);
        s.attempt(rec(1)); // over capacity: dropped
        assert_eq!(s.events().len(), 3);
        assert_eq!(s.dropped(), 1);
        assert!(matches!(s.events()[0], TraceEvent::Begin { .. }));
        assert!(matches!(s.events()[2], TraceEvent::End { .. }));
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
            s.begin(Phase::Extract);
            s.end(Phase::Extract);
        }
        let ts: Vec<u64> = s.events().iter().map(|e| e.ts_ns()).collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]));
    }
}
