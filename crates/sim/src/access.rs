//! Trace records: demand loads and the prefetch requests derived from them.

use crate::addr::{Addr, Block};
use serde::{Deserialize, Serialize};

/// One demand memory access from a workload trace.
///
/// Mirrors the ML Prefetching Competition trace format: a (instruction id,
/// program counter, virtual address) triple per load. `instr_id` is the
/// retire-order index of the instruction in the full dynamic instruction
/// stream, so gaps between consecutive loads encode how many non-memory
/// instructions separate them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MemoryAccess {
    /// Dynamic instruction index (retire order) of this load.
    pub instr_id: u64,
    /// Program counter of the load instruction.
    pub pc: Addr,
    /// Virtual address being loaded.
    pub vaddr: Addr,
    /// True when this load's address depends on the previous load's data
    /// (pointer chasing): the core cannot issue it until the previous load
    /// completes, which is what makes irregular workloads memory-bound.
    #[serde(default)]
    pub depends_on_prev: bool,
}

impl MemoryAccess {
    /// Creates a new (independent) access record.
    pub const fn new(instr_id: u64, pc: u64, vaddr: u64) -> Self {
        MemoryAccess {
            instr_id,
            pc: Addr::new(pc),
            vaddr: Addr::new(vaddr),
            depends_on_prev: false,
        }
    }

    /// Marks the access as address-dependent on the previous load.
    pub const fn dependent(mut self) -> Self {
        self.depends_on_prev = true;
        self
    }

    /// The cache block touched by this access.
    #[inline]
    pub fn block(&self) -> Block {
        self.vaddr.block()
    }
}

/// A demand load as the timed replay reads it: every field of
/// [`MemoryAccess`] but the PC, which only prefetchers use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReplayAccess {
    /// Dynamic instruction index (retire order) of this load.
    pub instr_id: u64,
    /// The cache block loaded.
    pub block: Block,
    /// True when this load's address depends on the previous load's data.
    pub depends_on_prev: bool,
}

impl From<&MemoryAccess> for ReplayAccess {
    #[inline]
    fn from(access: &MemoryAccess) -> Self {
        ReplayAccess {
            instr_id: access.instr_id,
            block: access.block(),
            depends_on_prev: access.depends_on_prev,
        }
    }
}

/// A prefetch request produced by a prefetcher for a specific trigger access.
///
/// The two-phase competition flow attaches each prefetch to the `instr_id` of
/// the demand access that triggered it; during timed replay the simulator
/// issues the prefetch when that demand access executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PrefetchRequest {
    /// Instruction id of the triggering demand access.
    pub trigger_instr_id: u64,
    /// Block to prefetch.
    pub block: Block,
}

impl PrefetchRequest {
    /// Creates a prefetch request for `block` triggered by `trigger_instr_id`.
    pub const fn new(trigger_instr_id: u64, block: Block) -> Self {
        PrefetchRequest {
            trigger_instr_id,
            block,
        }
    }
}

/// An in-memory workload trace: an ordered sequence of demand loads.
///
/// # Examples
///
/// ```
/// use pathfinder_sim::{MemoryAccess, Trace};
///
/// let trace: Trace = (0..4)
///     .map(|i| MemoryAccess::new(i * 10, 0x400, 0x1000 + i * 64))
///     .collect();
/// assert_eq!(trace.len(), 4);
/// assert_eq!(trace.total_instructions(), 31);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Trace {
    accesses: Vec<MemoryAccess>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Wraps an access list as a trace.
    pub fn from_accesses(accesses: Vec<MemoryAccess>) -> Self {
        Trace { accesses }
    }

    /// Number of loads in the trace.
    pub fn len(&self) -> usize {
        self.accesses.len()
    }

    /// Whether the trace holds no accesses.
    pub fn is_empty(&self) -> bool {
        self.accesses.is_empty()
    }

    /// Borrowed view of the access records.
    pub fn accesses(&self) -> &[MemoryAccess] {
        &self.accesses
    }

    /// Appends one access.
    pub fn push(&mut self, access: MemoryAccess) {
        self.accesses.push(access);
    }

    /// Total dynamic instructions covered by the trace (last id + 1).
    ///
    /// Used as the numerator of IPC: the trace stands for every instruction
    /// up to and including its final load.
    pub fn total_instructions(&self) -> u64 {
        self.accesses.last().map_or(0, |a| a.instr_id + 1)
    }

    /// A sub-trace holding the first `n` loads (or all of them if shorter).
    pub fn truncated(&self, n: usize) -> Trace {
        Trace {
            accesses: self.accesses[..n.min(self.accesses.len())].to_vec(),
        }
    }

    /// Iterates over the accesses.
    pub fn iter(&self) -> std::slice::Iter<'_, MemoryAccess> {
        self.accesses.iter()
    }
}

impl FromIterator<MemoryAccess> for Trace {
    fn from_iter<I: IntoIterator<Item = MemoryAccess>>(iter: I) -> Self {
        Trace {
            accesses: iter.into_iter().collect(),
        }
    }
}

impl Extend<MemoryAccess> for Trace {
    fn extend<I: IntoIterator<Item = MemoryAccess>>(&mut self, iter: I) {
        self.accesses.extend(iter);
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a MemoryAccess;
    type IntoIter = std::slice::Iter<'a, MemoryAccess>;

    fn into_iter(self) -> Self::IntoIter {
        self.accesses.iter()
    }
}

impl IntoIterator for Trace {
    type Item = MemoryAccess;
    type IntoIter = std::vec::IntoIter<MemoryAccess>;

    fn into_iter(self) -> Self::IntoIter {
        self.accesses.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        (0..10)
            .map(|i| MemoryAccess::new(i * 7, 0x400 + i, 0x10_000 + i * 64))
            .collect()
    }

    #[test]
    fn collect_and_iterate() {
        let t = sample();
        assert_eq!(t.len(), 10);
        assert_eq!(t.iter().count(), 10);
        let ids: Vec<u64> = t.iter().map(|a| a.instr_id).collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn total_instructions_covers_last_id() {
        let t = sample();
        assert_eq!(t.total_instructions(), 9 * 7 + 1);
        assert_eq!(Trace::new().total_instructions(), 0);
    }

    #[test]
    fn truncated_takes_prefix() {
        let t = sample();
        assert_eq!(t.truncated(3).len(), 3);
        assert_eq!(t.truncated(100).len(), 10);
        assert_eq!(t.truncated(3).accesses()[2], t.accesses()[2]);
    }

    #[test]
    fn extend_appends() {
        let mut t = sample();
        t.extend(std::iter::once(MemoryAccess::new(100, 0x500, 0x20_000)));
        assert_eq!(t.len(), 11);
        assert_eq!(t.total_instructions(), 101);
    }
}
