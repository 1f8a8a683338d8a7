//! The Training Table and Inference Table (§3.3, Figure 1).
//!
//! The Training Table is a (PC, page)-indexed CAM tracking each stream's
//! recent page offsets/deltas, the neuron that fired for its last SNN query,
//! and the predictions issued (so the next access can reward or penalize
//! them). The Inference Table holds, per excitatory neuron, up to two
//! (label, confidence) pairs, where a label is the next-delta prediction the
//! neuron stands for and the confidence is a 3-bit saturating counter.

use std::collections::HashMap;

use pathfinder_telemetry as telemetry;

/// Maximum value of the 3-bit saturating confidence counter.
pub const CONFIDENCE_MAX: u8 = 7;
/// Confidence assigned when a label is first learned ("an initial
/// confidence value (1 in our study)").
pub const CONFIDENCE_INIT: u8 = 1;

/// Longest delta history a Training Table row holds (the configuration's
/// `history` bound).
pub const MAX_HISTORY: usize = 8;

/// Largest neuron count whose indices fit a packed [`Prediction`].
pub(crate) const MAX_NEURONS: usize = 1 << 25;

/// One tracked prediction in 4 bytes: the neuron that made it, its label
/// slot (0 or 1) and the predicted page offset (0..64), packed as
/// `neuron << 7 | slot << 6 | offset`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Prediction(u32);

impl Prediction {
    pub(crate) fn new(neuron: usize, slot: usize, offset: u8) -> Self {
        debug_assert!(neuron < MAX_NEURONS && slot < 2 && offset < 64);
        Prediction((neuron as u32) << 7 | (slot as u32) << 6 | offset as u32)
    }

    pub(crate) fn neuron(self) -> usize {
        (self.0 >> 7) as usize
    }

    pub(crate) fn slot(self) -> usize {
        (self.0 >> 6 & 1) as usize
    }

    pub(crate) fn offset(self) -> u8 {
        (self.0 & 63) as u8
    }
}

/// Marks a row with no fired neuron awaiting a label.
const NO_NEURON: u32 = u32::MAX;

/// One Training Table row, with no heap storage beyond its exact-size list
/// of tracked predictions: deltas are same-page, so within ±63, and at most
/// [`MAX_HISTORY`] of them are kept inline.
#[derive(Debug, Clone)]
pub struct TrainingEntry {
    stamp: u64,
    touches: u64,
    predictions: Box<[Prediction]>,
    deltas: [i8; MAX_HISTORY],
    fired: u32,
    len: u8,
    last_offset: u8,
}

impl Default for TrainingEntry {
    fn default() -> Self {
        TrainingEntry {
            stamp: 0,
            touches: 0,
            predictions: Box::default(),
            deltas: [0; MAX_HISTORY],
            fired: NO_NEURON,
            len: 0,
            last_offset: 0,
        }
    }
}

impl TrainingEntry {
    /// Copies the recent same-page deltas, oldest first and capped at `H`,
    /// into `buf` as the encoder's `i16`s and returns them.
    pub fn deltas<'b>(&self, buf: &'b mut [i16; MAX_HISTORY]) -> &'b [i16] {
        let n = self.len as usize;
        for (out, &d) in buf.iter_mut().zip(&self.deltas[..n]) {
            *out = d.into();
        }
        &buf[..n]
    }

    /// Page offset of the most recent access ("last accessing page offset
    /// 22" in Figure 1).
    pub fn last_offset(&self) -> u8 {
        self.last_offset
    }

    /// Number of touches to this (PC, page) so far.
    pub fn touches(&self) -> u64 {
        self.touches
    }

    /// Neuron that fired for the most recent SNN query, awaiting a label.
    pub fn fired(&self) -> Option<usize> {
        (self.fired != NO_NEURON).then_some(self.fired as usize)
    }

    /// Records the outcome of this access's SNN query: the neuron that
    /// fired (awaiting the next delta as its label) and the predictions to
    /// check against the next access.
    pub(crate) fn set_query(&mut self, fired: Option<usize>, predictions: &[Prediction]) {
        self.fired = fired.map_or(NO_NEURON, |n| {
            debug_assert!(n < MAX_NEURONS);
            n as u32
        });
        self.predictions = predictions.into();
    }

    /// Takes the predictions issued on the last access, leaving none.
    pub(crate) fn take_predictions(&mut self) -> Box<[Prediction]> {
        std::mem::take(&mut self.predictions)
    }

    fn push_delta(&mut self, delta: i16, history: usize) {
        let delta = i8::try_from(delta).expect("same-page deltas lie within ±63");
        if self.len as usize == history {
            self.deltas.copy_within(1..history, 0);
            self.len -= 1;
        }
        self.deltas[self.len as usize] = delta;
        self.len += 1;
    }
}

/// The (PC, page)-indexed Training Table with bounded capacity.
///
/// Eviction is generational: when the table reaches twice its configured
/// capacity the least-recently-touched half is dropped, which bounds memory
/// like the paper's 1K-row CAM while staying O(1) amortized. The map
/// starts empty and grows with the rows actually touched: the capacity is
/// an eviction bound, not a reservation. Eviction ranks rows by unique
/// recency stamps, so the map's layout never changes which rows survive.
#[derive(Debug, Clone)]
pub struct TrainingTable {
    entries: HashMap<(u64, u64), TrainingEntry>,
    capacity: usize,
    clock: u64,
    history: usize,
}

impl TrainingTable {
    /// Creates a table with the given row capacity and delta-history length.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or `history` is not in `1..=MAX_HISTORY`.
    pub fn new(capacity: usize, history: usize) -> Self {
        assert!(capacity > 0 && history > 0, "capacity and history required");
        assert!(
            history <= MAX_HISTORY,
            "history {history} exceeds {MAX_HISTORY}"
        );
        TrainingTable {
            entries: HashMap::new(),
            capacity,
            clock: 0,
            history,
        }
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up a row without touching recency.
    pub fn peek(&self, pc: u64, page: u64) -> Option<&TrainingEntry> {
        self.entries.get(&(pc, page))
    }

    /// Looks up a row for update without touching recency.
    pub(crate) fn peek_mut(&mut self, pc: u64, page: u64) -> Option<&mut TrainingEntry> {
        self.entries.get_mut(&(pc, page))
    }

    /// Fetches (or creates) the row for `(pc, page)`, refreshing recency and
    /// evicting the oldest half if over budget.
    pub fn touch(&mut self, pc: u64, page: u64) -> &mut TrainingEntry {
        self.clock += 1;
        if telemetry::enabled() {
            if self.entries.contains_key(&(pc, page)) {
                telemetry::counter!("pf.train.hits", 1);
            } else {
                telemetry::counter!("pf.train.misses", 1);
            }
        }
        if self.entries.len() >= 2 * self.capacity && !self.entries.contains_key(&(pc, page)) {
            self.evict_oldest_half();
        }
        let entry = self.entries.entry((pc, page)).or_default();
        entry.stamp = self.clock;
        entry
    }

    /// Records an observed page offset, returning the same-page delta from
    /// the previous access to this row, if any.
    ///
    /// Repeat touches to the same block are ignored (delta 0): the paper's
    /// prefetcher operates on the LLC access stream, where the upper cache
    /// levels have already filtered same-block re-references, and a delta-0
    /// label could never be prefetched anyway.
    pub fn record_offset(&mut self, pc: u64, page: u64, offset: u8) -> Option<i16> {
        let history = self.history;
        let entry = self.touch(pc, page);
        entry.touches += 1;
        if entry.touches == 1 {
            entry.last_offset = offset;
            return None;
        }
        let delta = offset as i16 - entry.last_offset as i16;
        if delta == 0 {
            entry.touches -= 1; // a repeat is not a new observation
            return None;
        }
        entry.last_offset = offset;
        entry.push_delta(delta, history);
        Some(delta)
    }

    fn evict_oldest_half(&mut self) {
        let mut stamps: Vec<u64> = self.entries.values().map(|e| e.stamp).collect();
        stamps.sort_unstable();
        let cutoff = stamps[stamps.len() / 2];
        let before = self.entries.len();
        self.entries.retain(|_, e| e.stamp > cutoff);
        telemetry::counter!("pf.train.evictions", (before - self.entries.len()) as u64);
    }
}

/// One (label, confidence) slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Label {
    /// The next-delta this slot predicts.
    pub delta: i16,
    /// 3-bit saturating confidence.
    pub confidence: u8,
}

/// The per-neuron Inference Table.
#[derive(Debug, Clone)]
pub struct InferenceTable {
    slots: Vec<Vec<Option<Label>>>,
    labels_per_neuron: usize,
}

impl InferenceTable {
    /// Creates a table for `neurons` neurons with `labels_per_neuron` slots
    /// each.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(neurons: usize, labels_per_neuron: usize) -> Self {
        assert!(neurons > 0 && labels_per_neuron > 0, "non-empty table");
        InferenceTable {
            slots: vec![vec![None; labels_per_neuron]; neurons],
            labels_per_neuron,
        }
    }

    /// Slots per neuron.
    pub fn labels_per_neuron(&self) -> usize {
        self.labels_per_neuron
    }

    /// Live labels of `neuron`, highest-confidence first, as
    /// `(slot, label)`.
    pub fn labels(&self, neuron: usize) -> Vec<(usize, Label)> {
        let mut out: Vec<(usize, Label)> = self.slots[neuron]
            .iter()
            .enumerate()
            .filter_map(|(i, l)| l.map(|l| (i, l)))
            .collect();
        out.sort_by_key(|(_, l)| std::cmp::Reverse(l.confidence));
        out
    }

    /// Whether `neuron` already carries `delta` as a label.
    pub fn has_label(&self, neuron: usize, delta: i16) -> bool {
        self.slots[neuron]
            .iter()
            .any(|l| l.is_some_and(|l| l.delta == delta))
    }

    /// Tries to assign `delta` to a free (or dead) slot of `neuron` with the
    /// initial confidence. Returns the slot used, or `None` if the neuron's
    /// slots are all alive with other labels.
    pub fn assign(&mut self, neuron: usize, delta: i16) -> Option<usize> {
        if self.has_label(neuron, delta) {
            return None;
        }
        let slot = self.slots[neuron]
            .iter()
            .position(|l| l.is_none_or(|l| l.confidence == 0))?;
        self.slots[neuron][slot] = Some(Label {
            delta,
            confidence: CONFIDENCE_INIT,
        });
        Some(slot)
    }

    /// Increments the slot's confidence (saturating at 7).
    pub fn reward(&mut self, neuron: usize, slot: usize) {
        if let Some(label) = &mut self.slots[neuron][slot] {
            label.confidence = (label.confidence + 1).min(CONFIDENCE_MAX);
        }
    }

    /// Decrements the slot's confidence; at zero the label is erased,
    /// re-initiating the labeling process (§3.4).
    pub fn penalize(&mut self, neuron: usize, slot: usize) {
        if let Some(label) = &mut self.slots[neuron][slot] {
            label.confidence = label.confidence.saturating_sub(1);
            if label.confidence == 0 {
                self.slots[neuron][slot] = None;
                telemetry::counter!("pf.labels.erased", 1);
            }
        }
    }

    /// Total live labels across all neurons.
    pub fn live_labels(&self) -> usize {
        self.slots
            .iter()
            .flat_map(|s| s.iter())
            .filter(|l| l.is_some())
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_offset_produces_deltas() {
        let mut t = TrainingTable::new(16, 3);
        assert_eq!(t.record_offset(1, 100, 16), None);
        assert_eq!(t.record_offset(1, 100, 17), Some(1));
        assert_eq!(t.record_offset(1, 100, 19), Some(2));
        assert_eq!(t.record_offset(1, 100, 22), Some(3));
        // Figure 1's example: history now holds {1, 2, 3}, last offset 22.
        let e = t.peek(1, 100).unwrap();
        assert_eq!(e.deltas(&mut [0; MAX_HISTORY]), [1, 2, 3]);
        assert_eq!(e.last_offset(), 22);
    }

    #[test]
    fn history_is_capped() {
        let mut t = TrainingTable::new(16, 3);
        for (i, off) in [0u8, 1, 3, 6, 10, 15].iter().enumerate() {
            let _ = t.record_offset(1, 100, *off);
            let _ = i;
        }
        let e = t.peek(1, 100).unwrap();
        assert_eq!(e.deltas(&mut [0; MAX_HISTORY]), [3, 4, 5]);
    }

    #[test]
    fn streams_keyed_by_pc_and_page() {
        let mut t = TrainingTable::new(16, 3);
        t.record_offset(1, 100, 5);
        t.record_offset(2, 100, 50);
        t.record_offset(1, 200, 9);
        assert_eq!(t.len(), 3);
        assert_eq!(t.record_offset(1, 100, 6), Some(1));
        assert_eq!(t.record_offset(2, 100, 52), Some(2));
    }

    #[test]
    fn negative_deltas_tracked() {
        let mut t = TrainingTable::new(16, 3);
        t.record_offset(1, 1, 30);
        assert_eq!(t.record_offset(1, 1, 20), Some(-10));
    }

    #[test]
    fn capacity_is_bounded() {
        let mut t = TrainingTable::new(8, 3);
        for i in 0..100u64 {
            t.record_offset(i, i, 0);
        }
        assert!(t.len() <= 16, "table grew to {}", t.len());
        // Most recent entries survive.
        assert!(t.peek(99, 99).is_some());
    }

    #[test]
    fn inference_assign_and_lookup() {
        let mut it = InferenceTable::new(50, 2);
        assert_eq!(it.assign(17, 6), Some(0));
        assert!(it.has_label(17, 6));
        assert_eq!(
            it.labels(17)[0].1,
            Label {
                delta: 6,
                confidence: 1
            }
        );
        // Second label in the 2-label configuration (§3.4's example:
        // neuron 17 carries labels 6 and 12).
        assert_eq!(it.assign(17, 12), Some(1));
        assert_eq!(it.labels(17).len(), 2);
        // Third label is rejected.
        assert_eq!(it.assign(17, 30), None);
    }

    #[test]
    fn duplicate_label_not_assigned_twice() {
        let mut it = InferenceTable::new(4, 2);
        assert_eq!(it.assign(0, 5), Some(0));
        assert_eq!(it.assign(0, 5), None);
        assert_eq!(it.labels(0).len(), 1);
    }

    #[test]
    fn confidence_saturates_at_seven() {
        let mut it = InferenceTable::new(4, 1);
        it.assign(0, 3);
        for _ in 0..20 {
            it.reward(0, 0);
        }
        assert_eq!(it.labels(0)[0].1.confidence, CONFIDENCE_MAX);
    }

    #[test]
    fn zero_confidence_erases_label() {
        let mut it = InferenceTable::new(4, 1);
        it.assign(0, 3);
        it.penalize(0, 0); // 1 -> 0: erased
        assert!(it.labels(0).is_empty());
        assert_eq!(it.live_labels(), 0);
        // Slot is free again for a new label.
        assert_eq!(it.assign(0, 9), Some(0));
    }

    #[test]
    fn labels_sorted_by_confidence() {
        let mut it = InferenceTable::new(4, 2);
        it.assign(0, 3);
        it.assign(0, 8);
        it.reward(0, 1);
        it.reward(0, 1);
        let labels = it.labels(0);
        assert_eq!(labels[0].1.delta, 8);
        assert_eq!(labels[1].1.delta, 3);
    }
}
