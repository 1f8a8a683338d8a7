//! Bounded memoization of frozen-weight SNN queries.
//!
//! While STDP is duty-cycled off, a presentation is a pure function of the
//! pixel matrix, the readout mode, and the network's inference-relevant
//! state (weights + adaptive thresholds). [`SnnQueryCache`] exploits that:
//! entries are keyed on the packed matrix key
//! ([`crate::PixelMatrixEncoder::encode_key`]) plus [`Readout`], and the
//! whole cache is dropped the moment the network's
//! [`weight_version`](pathfinder_snn::DiehlCookNetwork::weight_version)
//! moves — so a hit returns exactly what the uncached query would.

use std::collections::HashMap;

use crate::config::Readout;

/// Everything the prefetcher consumes from one frozen SNN presentation.
///
/// Stored instead of the raw [`pathfinder_snn::RunOutcome`] so a cache hit
/// can replay both the prediction (neuron preference order) and the stats
/// bookkeeping (fired / 1-tick agreement counters) bit-for-bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedQuery {
    /// Neuron indices in prediction-preference order (winner first).
    pub order: Vec<usize>,
    /// Whether any excitatory neuron fired during the presentation.
    pub any_fired: bool,
    /// For [`Readout::FullInterval`] with a full-interval winner: whether
    /// the 1-tick argmax agreed with it (drives the §3.4 comparison stats).
    pub winner_matched_argmax: Option<bool>,
}

/// Counter deltas accumulated by a [`SnnQueryCache`]; drained by the owner
/// into [`crate::PathfinderStats`] and telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnnCacheStats {
    /// Queries answered from the cache.
    pub hits: u64,
    /// Queries that missed and ran the frozen kernel.
    pub misses: u64,
    /// Entries evicted to respect the capacity bound.
    pub evictions: u64,
    /// Wholesale clears triggered by a weight-version change.
    pub invalidations: u64,
}

/// A bounded LRU map from (packed matrix key, readout) to a frozen query
/// result, valid for exactly one SNN weight version.
///
/// The map starts empty and grows with use; `capacity` bounds it by
/// eviction. LRU stamps are unique, so the victim never depends on the
/// map's layout.
#[derive(Debug, Clone)]
pub struct SnnQueryCache {
    capacity: usize,
    /// Weight version the resident entries were computed at.
    version: u64,
    /// Monotonic use counter backing the LRU policy.
    clock: u64,
    entries: HashMap<(u64, Readout), (CachedQuery, u64)>,
    stats: SnnCacheStats,
}

impl SnnQueryCache {
    /// Creates a cache holding at most `capacity` entries (0 disables it).
    pub fn new(capacity: usize) -> Self {
        SnnQueryCache {
            capacity,
            version: 0,
            clock: 0,
            entries: HashMap::new(),
            stats: SnnCacheStats::default(),
        }
    }

    /// Whether the cache can hold anything at all.
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Resident entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Counter snapshot (monotonic over the cache's lifetime).
    pub fn stats(&self) -> SnnCacheStats {
        self.stats
    }

    /// Drops every resident entry if `weight_version` differs from the one
    /// the entries were computed at. Counted as an invalidation only when
    /// entries were actually discarded — version bumps while the cache is
    /// empty (e.g. every access of a training phase) are not churn.
    pub fn sync_version(&mut self, weight_version: u64) {
        if self.version != weight_version {
            if !self.entries.is_empty() {
                self.entries.clear();
                self.stats.invalidations += 1;
            }
            self.version = weight_version;
        }
    }

    /// Looks up a query, refreshing its LRU stamp on a hit. The caller must
    /// have called [`SnnQueryCache::sync_version`] for the current network
    /// state first.
    pub fn get(&mut self, key: u64, readout: Readout) -> Option<CachedQuery> {
        if self.capacity == 0 {
            self.stats.misses += 1;
            return None;
        }
        match self.entries.get_mut(&(key, readout)) {
            Some((cached, stamp)) => {
                self.clock += 1;
                *stamp = self.clock;
                self.stats.hits += 1;
                Some(cached.clone())
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Inserts a freshly computed query, evicting the least-recently-used
    /// entry when at capacity. No-op when the cache is disabled.
    pub fn insert(&mut self, key: u64, readout: Readout, value: CachedQuery) {
        if self.capacity == 0 {
            return;
        }
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&(key, readout)) {
            // O(n) min-scan: at the default 1024 entries this is nanoseconds
            // against the ~20µs SNN presentation a miss just paid for.
            if let Some(&victim) = self
                .entries
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(k, _)| k)
            {
                self.entries.remove(&victim);
                self.stats.evictions += 1;
            }
        }
        self.clock += 1;
        self.entries.insert((key, readout), (value, self.clock));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(winner: usize) -> CachedQuery {
        CachedQuery {
            order: vec![winner],
            any_fired: true,
            winner_matched_argmax: None,
        }
    }

    #[test]
    fn hit_returns_inserted_value() {
        let mut c = SnnQueryCache::new(4);
        c.sync_version(1);
        assert_eq!(c.get(7, Readout::OneTick), None);
        c.insert(7, Readout::OneTick, q(3));
        assert_eq!(c.get(7, Readout::OneTick), Some(q(3)));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn readout_mode_is_part_of_the_key() {
        let mut c = SnnQueryCache::new(4);
        c.insert(7, Readout::OneTick, q(1));
        assert_eq!(c.get(7, Readout::FullInterval), None);
        assert_eq!(c.get(7, Readout::OneTick), Some(q(1)));
    }

    #[test]
    fn version_change_clears_everything() {
        let mut c = SnnQueryCache::new(4);
        c.sync_version(1);
        c.insert(7, Readout::OneTick, q(1));
        c.insert(8, Readout::OneTick, q(2));
        c.sync_version(2);
        assert!(c.is_empty());
        assert_eq!(c.stats().invalidations, 1);
        // Re-syncing the same version is free.
        c.sync_version(2);
        assert_eq!(c.stats().invalidations, 1);
        // Version churn over an empty cache is not counted.
        c.sync_version(3);
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let mut c = SnnQueryCache::new(2);
        c.insert(1, Readout::OneTick, q(1));
        c.insert(2, Readout::OneTick, q(2));
        // Touch key 1 so key 2 is the LRU victim.
        assert!(c.get(1, Readout::OneTick).is_some());
        c.insert(3, Readout::OneTick, q(3));
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().evictions, 1);
        assert!(c.get(1, Readout::OneTick).is_some());
        assert_eq!(c.get(2, Readout::OneTick), None);
        assert!(c.get(3, Readout::OneTick).is_some());
    }

    #[test]
    fn reinserting_a_resident_key_does_not_evict() {
        let mut c = SnnQueryCache::new(2);
        c.insert(1, Readout::OneTick, q(1));
        c.insert(2, Readout::OneTick, q(2));
        c.insert(1, Readout::OneTick, q(9));
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().evictions, 0);
        assert_eq!(c.get(1, Readout::OneTick), Some(q(9)));
    }

    #[test]
    fn zero_capacity_disables_without_breaking_miss_accounting() {
        let mut c = SnnQueryCache::new(0);
        assert!(!c.is_enabled());
        c.insert(1, Readout::OneTick, q(1));
        assert_eq!(c.get(1, Readout::OneTick), None);
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.len(), 0);
    }
}
