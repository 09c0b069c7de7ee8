//! A sharded LRU plan cache.
//!
//! Values are *rendered result JSON strings* — caching the final bytes
//! means a hit costs one key hash, one shard lock, and one string clone,
//! with no re-serialization. Keys are the 64-bit request keys of
//! `proto::ScenarioSpec::cache_key`.
//!
//! Sharding: the key's top bits pick one of [`SHARDS`] independently
//! locked maps, so concurrent connection threads rarely contend on the
//! same mutex. Each shard runs its own LRU clock — a `u64` tick bumped on
//! every touch; eviction removes the smallest tick. Eviction is an O(shard)
//! scan, which for a plan cache (hundreds to thousands of entries, hit
//! paths dominated by the planner's millisecond solves) is simpler and
//! cheaper than maintaining an intrusive list — and it only runs when a
//! shard is full.

use hems_obs::{relock, Counter, Registry};
use std::collections::HashMap;
use std::sync::Mutex;

/// Number of independently locked shards (a power of two).
pub const SHARDS: usize = 8;

#[derive(Debug)]
struct Shard {
    entries: HashMap<u64, (u64, String)>,
    clock: u64,
}

/// The sharded LRU cache of rendered plan results.
#[derive(Debug)]
pub struct PlanCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_capacity: usize,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
}

impl PlanCache {
    /// A cache holding at most ~`capacity` entries total (rounded up to a
    /// multiple of [`SHARDS`]; a zero capacity disables caching). Hit,
    /// miss, and eviction counters stay detached (counted but invisible);
    /// use [`PlanCache::with_registry`] to surface them in a snapshot.
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            shards: (0..SHARDS)
                .map(|_| {
                    Mutex::new(Shard {
                        entries: HashMap::new(),
                        clock: 0,
                    })
                })
                .collect(),
            per_shard_capacity: capacity.div_ceil(SHARDS),
            hits: Counter::detached(),
            misses: Counter::detached(),
            evictions: Counter::detached(),
        }
    }

    /// Like [`PlanCache::new`], but registers `serve.cache.hits`,
    /// `serve.cache.misses`, and `serve.cache.evictions` counters in
    /// `registry` so cache behaviour shows up in `metrics` snapshots.
    pub fn with_registry(capacity: usize, registry: &Registry) -> PlanCache {
        let mut cache = PlanCache::new(capacity);
        cache.hits = registry.counter("serve.cache.hits");
        cache.misses = registry.counter("serve.cache.misses");
        cache.evictions = registry.counter("serve.cache.evictions");
        cache
    }

    fn shard(&self, key: u64) -> &Mutex<Shard> {
        // Top bits: the FNV avalanche is strongest there, and the low bits
        // already index the HashMap buckets inside the shard. The modulo
        // keeps the index in 0..SHARDS by construction.
        // hems-lint: allow(index, reason = "index is key % SHARDS, always in range")
        &self.shards[(key >> 61) as usize % SHARDS]
    }

    /// Looks up a key, refreshing its recency on a hit.
    pub fn get(&self, key: u64) -> Option<String> {
        let mut shard = relock(self.shard(key));
        shard.clock += 1;
        let clock = shard.clock;
        let value = shard.entries.get_mut(&key).map(|entry| {
            entry.0 = clock;
            entry.1.clone()
        });
        match value {
            Some(_) => self.hits.inc(),
            None => self.misses.inc(),
        }
        value
    }

    /// Inserts (or refreshes) a rendered result, evicting the shard's
    /// least-recently-used entry when full.
    pub fn insert(&self, key: u64, value: String) {
        if self.per_shard_capacity == 0 {
            return;
        }
        let mut shard = relock(self.shard(key));
        shard.clock += 1;
        let clock = shard.clock;
        if shard.entries.len() >= self.per_shard_capacity && !shard.entries.contains_key(&key) {
            if let Some((&oldest, _)) = shard.entries.iter().min_by_key(|(_, (tick, _))| *tick) {
                shard.entries.remove(&oldest);
                self.evictions.inc();
            }
        }
        shard.entries.insert(key, (clock, value));
    }

    /// Total entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| relock(s).entries.len()).sum()
    }

    /// `true` when no shard holds an entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_after_insert_hits_and_misses_are_none() {
        let cache = PlanCache::new(64);
        assert_eq!(cache.get(1), None);
        cache.insert(1, "plan-a".to_string());
        assert_eq!(cache.get(1).as_deref(), Some("plan-a"));
        assert_eq!(cache.get(2), None);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn insert_refreshes_an_existing_key() {
        let cache = PlanCache::new(64);
        cache.insert(1, "old".to_string());
        cache.insert(1, "new".to_string());
        assert_eq!(cache.get(1).as_deref(), Some("new"));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn eviction_removes_the_least_recently_used() {
        // Capacity 8 → 1 entry per shard; three keys in the same shard.
        let cache = PlanCache::new(8);
        let in_shard = |i: u64| i << 8; // top bits zero → shard 0
        cache.insert(in_shard(1), "a".to_string());
        cache.insert(in_shard(2), "b".to_string());
        assert_eq!(cache.get(in_shard(1)), None, "a was evicted");
        assert_eq!(cache.get(in_shard(2)).as_deref(), Some("b"));
        // A 1-entry shard always evicts its occupant for the newcomer.
        cache.insert(in_shard(3), "c".to_string());
        assert_eq!(cache.get(in_shard(2)), None);
        assert_eq!(cache.get(in_shard(3)).as_deref(), Some("c"));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = PlanCache::new(0);
        cache.insert(1, "a".to_string());
        assert_eq!(cache.get(1), None);
        assert!(cache.is_empty());
    }

    #[test]
    fn registry_counters_track_hits_misses_and_evictions() {
        let registry = Registry::new();
        let cache = PlanCache::with_registry(8, &registry);
        let in_shard = |i: u64| i << 8; // top bits zero → shard 0
        assert_eq!(cache.get(in_shard(1)), None); // miss
        cache.insert(in_shard(1), "a".to_string());
        assert!(cache.get(in_shard(1)).is_some()); // hit
        cache.insert(in_shard(2), "b".to_string()); // 1-entry shard: evicts a
        let snap = registry.snapshot();
        assert_eq!(snap.counter("serve.cache.hits"), Some(1));
        assert_eq!(snap.counter("serve.cache.misses"), Some(1));
        assert_eq!(snap.counter("serve.cache.evictions"), Some(1));
    }

    #[test]
    fn keys_spread_across_shards() {
        let cache = PlanCache::new(SHARDS * 4);
        for i in 0..64u64 {
            // Vary the top bits so shards are exercised.
            cache.insert(i << 58, format!("v{i}"));
        }
        assert!(cache.len() > SHARDS, "multiple shards hold entries");
    }
}
