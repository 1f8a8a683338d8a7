//! Fixed-capacity MSHR tracker for the replay engine.
//!
//! The engine needs a multiset of outstanding-miss completion cycles with
//! three operations: drop everything that completed by a given cycle, take
//! the earliest completion when the structure is full, and insert one new
//! completion per LLC miss. The pre-rewrite engine used a
//! `BinaryHeap<Reverse<u64>>` (retained in [`crate::reference`]); this
//! tracker replaces it with one array sized to the core's MSHR count at
//! construction — bounded by construction, zero steady-state allocation,
//! and an unordered linear scan instead of heap sift-downs (MSHR counts
//! are small — Table 3 uses 32 — so the scan stays in one or two cache
//! lines).
//!
//! Element order is irrelevant: the engine only ever asks for the minimum
//! or removes by threshold, so removal uses `swap_remove`-style compaction.
//! The tracker additionally caches the earliest live completion so the
//! per-access [`MshrTracker::drain_completed`] call is a single compare
//! when nothing has completed yet — the common case, and the one the
//! heap's `peek` also served in O(1).
//!
//! [`MshrTracker::pop_earliest`] is a single two-smallest pass: the
//! runner-up *is* the post-removal minimum, since the second smallest
//! value counting duplicates equals the min of the remainder after one
//! first-minimum `swap_remove`. The BinaryHeap-semantics tape below pins
//! it.

/// Completion cycles of outstanding demand misses, bounded by the MSHR
/// count supplied at construction.
///
/// # Examples
///
/// ```
/// use pathfinder_sim::MshrTracker;
///
/// let mut mshrs = MshrTracker::new(2);
/// mshrs.push(100);
/// mshrs.push(50);
/// assert_eq!(mshrs.len(), 2);
/// assert_eq!(mshrs.pop_earliest(), Some(50));
/// mshrs.drain_completed(100);
/// assert!(mshrs.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct MshrTracker {
    /// Completion cycles, unordered; only `slots[..len]` is live.
    slots: Box<[u64]>,
    len: usize,
    /// Smallest live completion cycle (`u64::MAX` when empty), maintained
    /// so threshold drains can early-exit without scanning.
    earliest: u64,
}

impl MshrTracker {
    /// Creates an empty tracker for `mshrs` outstanding misses.
    ///
    /// A zero MSHR count still reserves one slot: the engine's stall logic
    /// ("pop the earliest completion when at capacity, then insert") keeps
    /// at most one entry live in that configuration.
    pub fn new(mshrs: usize) -> Self {
        MshrTracker {
            slots: vec![0; mshrs.max(1)].into_boxed_slice(),
            len: 0,
            earliest: u64::MAX,
        }
    }

    /// Outstanding completions currently tracked.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is outstanding.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slot capacity fixed at construction.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Removes every completion at or before `now`. A single compare
    /// against the cached minimum when nothing has completed.
    #[inline]
    pub fn drain_completed(&mut self, now: u64) {
        if self.earliest > now {
            return;
        }
        let mut i = 0;
        while i < self.len {
            if self.slots[i] <= now {
                self.len -= 1;
                self.slots[i] = self.slots[self.len];
            } else {
                i += 1;
            }
        }
        // Recompute the cached minimum over the compacted survivors
        // (`u64::MAX` when all completed).
        self.earliest = self.slots[..self.len]
            .iter()
            .copied()
            .fold(u64::MAX, u64::min);
    }

    /// Removes and returns the earliest completion, if any.
    ///
    /// A single two-smallest scan: the removed entry is the first minimum
    /// and the runner-up becomes the new cached `earliest` — exactly the
    /// min of the remaining entries, because the second smallest value
    /// *counting duplicates* is unaffected by removing one copy of the
    /// minimum. (Previously this re-scanned the slots after the
    /// `swap_remove`.)
    #[inline]
    pub fn pop_earliest(&mut self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        // Strictly smaller slots displace the minimum (so the first
        // minimum's index is kept) and the displaced value — or any later
        // duplicate of the minimum — races for runner-up.
        let live = &self.slots[..self.len];
        let (mut min_idx, mut done, mut runner_up) = (0, live[0], u64::MAX);
        for (i, &x) in live.iter().enumerate().skip(1) {
            if x < done {
                runner_up = done;
                done = x;
                min_idx = i;
            } else if x < runner_up {
                runner_up = x;
            }
        }
        self.len -= 1;
        self.slots[min_idx] = self.slots[self.len];
        self.earliest = runner_up;
        Some(done)
    }

    /// Records a new outstanding completion.
    ///
    /// # Panics
    ///
    /// Panics if the tracker is already at capacity — the engine drains
    /// and, at capacity, pops before every insert, so this indicates a
    /// caller bug rather than a workload condition.
    #[inline]
    pub fn push(&mut self, done: u64) {
        assert!(
            self.len < self.slots.len(),
            "MSHR tracker over capacity ({} slots)",
            self.slots.len()
        );
        self.slots[self.len] = done;
        self.len += 1;
        self.earliest = self.earliest.min(done);
    }

    /// Empties the tracker (capacity is retained).
    pub fn clear(&mut self) {
        self.len = 0;
        self.earliest = u64::MAX;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_a_bounded_multiset() {
        let mut m = MshrTracker::new(4);
        assert!(m.is_empty());
        for done in [40, 10, 30, 10] {
            m.push(done);
        }
        assert_eq!(m.len(), 4);
        assert_eq!(m.capacity(), 4);
        // Duplicates are distinct entries.
        assert_eq!(m.pop_earliest(), Some(10));
        assert_eq!(m.pop_earliest(), Some(10));
        assert_eq!(m.pop_earliest(), Some(30));
        assert_eq!(m.pop_earliest(), Some(40));
        assert_eq!(m.pop_earliest(), None);
    }

    #[test]
    fn drain_removes_exactly_the_completed() {
        let mut m = MshrTracker::new(8);
        for done in [5, 20, 7, 20, 100] {
            m.push(done);
        }
        m.drain_completed(20);
        assert_eq!(m.len(), 1);
        assert_eq!(m.pop_earliest(), Some(100));
        m.drain_completed(0); // empty drain is a no-op
        assert!(m.is_empty());
    }

    #[test]
    fn matches_binary_heap_semantics_on_a_random_tape() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let mut tracker = MshrTracker::new(64);
        let mut heap: BinaryHeap<Reverse<u64>> = BinaryHeap::new();
        let mut x = 0x9E3779B97F4A7C15u64;
        for step in 0..2_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            match x % 3 {
                0 => {
                    if tracker.len() < tracker.capacity() {
                        let v = x >> 32;
                        tracker.push(v);
                        heap.push(Reverse(v));
                    }
                }
                1 => {
                    assert_eq!(tracker.pop_earliest(), heap.pop().map(|Reverse(v)| v));
                }
                _ => {
                    let now = x >> 34;
                    tracker.drain_completed(now);
                    while let Some(&Reverse(done)) = heap.peek() {
                        if done <= now {
                            heap.pop();
                        } else {
                            break;
                        }
                    }
                }
            }
            assert_eq!(tracker.len(), heap.len(), "diverged at step {step}");
        }
    }

    #[test]
    fn zero_mshr_config_still_holds_one_entry() {
        let mut m = MshrTracker::new(0);
        assert_eq!(m.capacity(), 1);
        m.push(10);
        assert_eq!(m.pop_earliest(), Some(10));
    }

    #[test]
    #[should_panic(expected = "over capacity")]
    fn push_past_capacity_panics() {
        let mut m = MshrTracker::new(1);
        m.push(1);
        m.push(2);
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut m = MshrTracker::new(3);
        m.push(1);
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.capacity(), 3);
    }
}
