//! Flattened CSR-style segment storage for the occupancy index.
//!
//! [`Csr`] keeps one array of the per-segment lists of [`PlacementState`]
//! — cell ids, x-extents or rows — in **one backing arena** with
//! per-segment offset ranges instead of a `Vec` per segment. The old
//! `Vec<Vec<_>>` layout paid
//! a heap allocation per segment and a pointer dereference per probe; at a
//! million cells those pointers scatter across hundreds of megabytes and
//! every `partition_point` step is a cache miss. Here a probe lands in one
//! contiguous slice of the arena, and neighboring segments (which the
//! window queries visit together) usually share cache lines.
//!
//! Mutations are amortized: each segment's range carries slack capacity, so
//! an insert shifts at most `len` contiguous elements (`copy_within`, no
//! allocation). A full range is *resliced* — relocated to the arena tail
//! with doubled capacity — leaving a dead hole behind; when dead space
//! exceeds the live data the arena compacts in place. Both reslicing and
//! compaction are amortized O(1) per insert.
//!
//! [`PlacementState`]: crate::PlacementState

/// Offset range of one segment inside the backing arena.
#[derive(Clone, Copy, Debug, Default)]
struct Span {
    /// First element of the segment's block in the arena.
    start: u32,
    /// Occupied prefix of the block.
    len: u32,
    /// Allocated block size (`len <= cap`).
    cap: u32,
}

/// One backing arena of `T` plus per-segment offset ranges.
///
/// Element order inside a segment's block is maintained by the caller
/// (the occupancy index keeps each segment's entries x-sorted).
#[derive(Clone, Debug)]
pub(crate) struct Csr<T> {
    spans: Vec<Span>,
    data: Vec<T>,
    /// Sum of all span lengths (live elements).
    live: usize,
    /// Elements abandoned by reslicing, reclaimable by compaction.
    dead: usize,
}

/// Initial capacity handed to a segment on its first insert.
const FIRST_CAP: u32 = 4;

impl<T: Copy> Csr<T> {
    /// An arena of `segments` empty ranges.
    pub fn new(segments: usize) -> Self {
        Csr {
            spans: vec![Span::default(); segments],
            data: Vec::new(),
            live: 0,
            dead: 0,
        }
    }

    /// The occupied slice of a segment.
    #[inline]
    pub fn slice(&self, seg: usize) -> &[T] {
        let s = self.spans[seg];
        &self.data[s.start as usize..(s.start + s.len) as usize]
    }

    /// Mutable element access within a segment's occupied range.
    #[inline]
    pub fn get_mut(&mut self, seg: usize, idx: usize) -> &mut T {
        let s = self.spans[seg];
        debug_assert!(idx < s.len as usize);
        &mut self.data[s.start as usize + idx]
    }

    /// Inserts `v` at `idx` of the segment's slice, shifting the tail right
    /// by one `copy_within`. Reslices (and possibly compacts) when the
    /// block is full.
    pub fn insert(&mut self, seg: usize, idx: usize, v: T) {
        let s = self.spans[seg];
        debug_assert!(idx <= s.len as usize);
        if s.len == s.cap {
            self.reslice(seg, v);
        }
        let s = self.spans[seg];
        let (start, len) = (s.start as usize, s.len as usize);
        self.data
            .copy_within(start + idx..start + len, start + idx + 1);
        self.data[start + idx] = v;
        self.spans[seg].len += 1;
        self.live += 1;
    }

    /// Removes and returns the element at `idx` of the segment's slice,
    /// shifting the tail left by one `copy_within`. The freed slot stays
    /// with the segment as slack capacity.
    pub fn remove(&mut self, seg: usize, idx: usize) -> T {
        let s = self.spans[seg];
        debug_assert!(idx < s.len as usize);
        let (start, len) = (s.start as usize, s.len as usize);
        let out = self.data[start + idx];
        self.data
            .copy_within(start + idx + 1..start + len, start + idx);
        self.spans[seg].len -= 1;
        self.live -= 1;
        out
    }

    /// Bytes held by the arena and the offset table (capacities, not
    /// lengths — this is what the process actually pays for the index).
    pub fn bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<T>()
            + self.spans.capacity() * std::mem::size_of::<Span>()
    }

    /// Arena bytes NOT occupied by live elements — per-segment slack plus
    /// dead holes left by reslicing plus unused `Vec` capacity. The
    /// telemetry layer exports this as a gauge so long-lived serving
    /// sessions can watch compaction debt grow and shrink.
    pub fn slack_bytes(&self) -> usize {
        self.data.capacity().saturating_sub(self.live) * std::mem::size_of::<T>()
    }

    /// Moves a full segment block to the arena tail with doubled capacity.
    /// `pad` fills the block's slack (never read; `len` guards every
    /// access) so the arena stays fully initialized without `T: Default`.
    fn reslice(&mut self, seg: usize, pad: T) {
        if self.dead > self.live.max(1024) {
            self.compact(pad);
        }
        let s = self.spans[seg];
        let new_cap = (s.cap * 2).max(FIRST_CAP);
        let new_start = self.data.len();
        debug_assert!(new_start + new_cap as usize <= u32::MAX as usize);
        self.data.reserve(new_cap as usize);
        self.data
            .extend_from_within(s.start as usize..(s.start + s.len) as usize);
        self.data.resize(new_start + new_cap as usize, pad);
        self.dead += s.cap as usize;
        self.spans[seg] = Span {
            start: new_start as u32,
            len: s.len,
            cap: new_cap,
        };
    }

    /// Rewrites the arena with segments in index order, dropping dead
    /// holes. Each block keeps ~50% slack so compaction doesn't force the
    /// very next insert to reslice again.
    fn compact(&mut self, pad: T) {
        let mut cursor = 0usize;
        let mut packed: Vec<T> = Vec::with_capacity(self.live + self.live / 2 + self.spans.len());
        for s in &mut self.spans {
            let new_cap = if s.len == 0 {
                0
            } else {
                (s.len + (s.len / 2).max(1)).max(FIRST_CAP)
            };
            let new_start = cursor as u32;
            packed.extend_from_slice(&self.data[s.start as usize..(s.start + s.len) as usize]);
            packed.resize(cursor + new_cap as usize, pad);
            cursor += new_cap as usize;
            *s = Span {
                start: new_start,
                len: s.len,
                cap: new_cap,
            };
        }
        self.data = packed;
        self.dead = cursor - self.live;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_keeps_slices_ordered() {
        let mut c: Csr<i32> = Csr::new(3);
        for v in [5, 1, 9, 3, 7] {
            let idx = c.slice(1).partition_point(|&x| x < v);
            c.insert(1, idx, v);
        }
        assert_eq!(c.slice(1), &[1, 3, 5, 7, 9]);
        assert!(c.slice(0).is_empty() && c.slice(2).is_empty());
        assert_eq!(c.remove(1, 2), 5);
        assert_eq!(c.slice(1), &[1, 3, 7, 9]);
    }

    #[test]
    fn interleaved_growth_across_segments() {
        // Alternating inserts force repeated reslices of both segments.
        let mut c: Csr<u32> = Csr::new(2);
        for i in 0..500u32 {
            c.insert(0, c.slice(0).len(), i);
            c.insert(1, 0, i);
        }
        assert_eq!(c.slice(0).len(), 500);
        assert_eq!(c.slice(0)[499], 499);
        assert_eq!(c.slice(1)[0], 499);
        assert_eq!(c.slice(1)[499], 0);
    }

    #[test]
    fn compaction_bounds_dead_space() {
        let mut c: Csr<u64> = Csr::new(64);
        for round in 0..200u64 {
            for seg in 0..64 {
                c.insert(seg, 0, round * 64 + seg as u64);
            }
        }
        // Growth left holes, but compaction keeps dead below live + floor.
        assert!(c.dead <= c.live.max(1024) + c.live);
        assert_eq!(c.live, 200 * 64);
        for seg in 0..64 {
            assert_eq!(c.slice(seg).len(), 200);
            assert!(c.slice(seg).windows(2).all(|w| w[0] > w[1]));
        }
    }

    #[test]
    fn get_mut_edits_in_place() {
        let mut c: Csr<i32> = Csr::new(1);
        c.insert(0, 0, 7);
        c.insert(0, 1, 8);
        *c.get_mut(0, 1) = 42;
        assert_eq!(c.slice(0), &[7, 42]);
    }
}
