//! Content-addressed result cache keyed by config digests.
//!
//! The cache memoizes expensive computations (simulation sweeps,
//! experiment renders) whose inputs are canonicalised JSON configs:
//! the key is [`crate::digest::digest`] of the config, the value is
//! the result's rendered text behind an `Arc`, so a hit hands out a
//! reference count, never a copy — every holder of a result shares the
//! one allocation its first computation made. Storage is a bounded
//! in-memory LRU; it lives and dies with the process, because the key
//! names the config only — not the code that computed the result.
//!
//! Recency is a logical access counter, not wall-clock time, so
//! eviction order is a pure function of the access sequence — the
//! LRU tests can assert exact eviction victims.

use std::collections::BTreeMap;
use std::sync::Arc;

/// Running totals; `hits`/`misses` count [`ResultCache::get`] calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from memory.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries pushed out of memory by the LRU bound.
    pub evictions: u64,
}

struct Slot {
    value: Arc<str>,
    /// Logical last-access stamp (monotone counter, not time).
    stamp: u64,
}

/// Bounded LRU of digest → result.
pub struct ResultCache {
    capacity: usize,
    slots: BTreeMap<u64, Slot>,
    clock: u64,
    stats: CacheStats,
}

impl ResultCache {
    /// In-memory cache holding at most `capacity` entries (≥ 1).
    pub fn new(capacity: usize) -> ResultCache {
        ResultCache {
            capacity: capacity.max(1),
            slots: BTreeMap::new(),
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// Look up a digest; a hit refreshes the entry's recency and
    /// shares the stored text.
    pub fn get(&mut self, digest: u64) -> Option<Arc<str>> {
        self.clock += 1;
        if let Some(slot) = self.slots.get_mut(&digest) {
            slot.stamp = self.clock;
            self.stats.hits += 1;
            return Some(Arc::clone(&slot.value));
        }
        self.stats.misses += 1;
        None
    }

    /// Insert (or refresh) an entry, evicting the coldest entries
    /// beyond the capacity.
    pub fn insert(&mut self, digest: u64, value: Arc<str>) {
        self.clock += 1;
        self.slots.insert(
            digest,
            Slot {
                value,
                stamp: self.clock,
            },
        );
        while self.slots.len() > self.capacity {
            let Some(coldest) = self
                .slots
                .iter()
                .min_by_key(|(_, s)| s.stamp)
                .map(|(&d, _)| d)
            else {
                // Unreachable (len > capacity ≥ 0 implies non-empty),
                // and an under-full cache is not worth a panic.
                break;
            };
            self.slots.remove(&coldest);
            self.stats.evictions += 1;
        }
    }

    /// Entries currently resident in memory.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when nothing is resident in memory.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(n: u64) -> Arc<str> {
        format!("{{\"n\":{n}}}").into()
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let mut c = ResultCache::new(2);
        c.insert(1, v(1));
        c.insert(2, v(2));
        assert!(c.get(1).is_some()); // 1 is now warmer than 2
        c.insert(3, v(3)); // evicts 2
        assert_eq!(c.len(), 2);
        assert!(c.get(2).is_none(), "coldest entry must be the victim");
        assert!(c.get(1).is_some());
        assert!(c.get(3).is_some());
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn bound_holds_under_churn() {
        let mut c = ResultCache::new(4);
        for i in 0..100 {
            c.insert(i, v(i));
            assert!(c.len() <= 4);
        }
        assert_eq!(c.stats().evictions, 96);
        // The four newest survive.
        for i in 96..100 {
            assert!(c.get(i).is_some());
        }
    }

    #[test]
    fn hit_returns_the_exact_value() {
        let mut c = ResultCache::new(8);
        let val: Arc<str> = r#"{"rows":[1,2,3],"eff":0.96}"#.into();
        c.insert(42, Arc::clone(&val));
        let hit = c.get(42).expect("hit");
        assert!(Arc::ptr_eq(&hit, &val));
        assert_eq!(
            c.stats(),
            CacheStats {
                hits: 1,
                ..CacheStats::default()
            }
        );
    }
}
