//! Sharded LRU cache for computed responses.
//!
//! Read endpoints are deterministic functions of (snapshot generation,
//! request), so the engine caches each typed reply, tagged with its
//! generation, keyed by the canonical request text. Values are cheap to
//! clone (a reply's body is an `Arc<str>`), so a hit is a refcount bump.
//! The map is split into shards, each behind its own mutex, so
//! concurrent readers on different shards never contend; within a shard,
//! recency is a monotone tick and eviction removes the smallest tick (an
//! `O(shard)` scan — shards are small by construction, `capacity /
//! shards` entries).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

const POISONED: &str = "a cache shard holder panicked";

/// A sharded least-recently-used cache keyed by strings.
#[derive(Debug)]
pub struct ShardedCache<V> {
    shards: Vec<Mutex<HashMap<String, (u64, V)>>>,
    per_shard: usize,
    tick: AtomicU64,
}

impl<V: Clone> ShardedCache<V> {
    /// A cache with `shards` shards of `capacity / shards` entries each
    /// (at least one per shard). `shards` must be non-zero.
    pub fn new(capacity: usize, shards: usize) -> ShardedCache<V> {
        assert!(shards > 0, "cache needs at least one shard");
        ShardedCache {
            shards: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            per_shard: (capacity / shards).max(1),
            tick: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &str) -> &Mutex<HashMap<String, (u64, V)>> {
        // FNV-1a: stable across runs (unlike `RandomState`), cheap, and
        // good enough to spread protocol strings.
        let mut h: u64 = 0xcbf29ce484222325;
        for b in key.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        &self.shards[(h % self.shards.len() as u64) as usize]
    }

    /// Fetches and refreshes recency.
    pub fn get(&self, key: &str) -> Option<V> {
        let mut entries = self.shard(key).lock().expect(POISONED);
        let tick = self.tick.fetch_add(1, Ordering::Relaxed);
        let (stamp, value) = entries.get_mut(key)?;
        *stamp = tick;
        Some(value.clone())
    }

    /// Inserts, evicting the least-recently-used entry of the target
    /// shard when it is full.
    pub fn put(&self, key: String, value: V) {
        let mut entries = self.shard(&key).lock().expect(POISONED);
        let tick = self.tick.fetch_add(1, Ordering::Relaxed);
        if entries.len() >= self.per_shard && !entries.contains_key(&key) {
            if let Some(oldest) = entries
                .iter()
                .min_by_key(|(_, (stamp, _))| *stamp)
                .map(|(k, _)| k.clone())
            {
                entries.remove(&oldest);
            }
        }
        entries.insert(key, (tick, value));
    }

    /// Drops every entry — called when a new snapshot is published,
    /// since entries for the old generation can no longer be served.
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().expect(POISONED).clear();
        }
    }

    /// Entries currently held, across shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect(POISONED).len())
            .sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_put_round_trip() {
        let cache = ShardedCache::<String>::new(64, 8);
        assert_eq!(cache.get("a"), None);
        cache.put("a".into(), "1".into());
        assert_eq!(cache.get("a").as_deref(), Some("1"));
        cache.put("a".into(), "2".into());
        assert_eq!(cache.get("a").as_deref(), Some("2"));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn evicts_least_recently_used_within_shard() {
        // One shard of capacity 2 makes eviction order observable.
        let cache = ShardedCache::<String>::new(2, 1);
        cache.put("a".into(), "1".into());
        cache.put("b".into(), "2".into());
        cache.get("a"); // refresh a; b is now LRU
        cache.put("c".into(), "3".into());
        assert_eq!(cache.get("a").as_deref(), Some("1"));
        assert_eq!(cache.get("b"), None);
        assert_eq!(cache.get("c").as_deref(), Some("3"));
    }

    #[test]
    fn eviction_follows_exact_access_order() {
        // Fill a single shard, touch entries in a scrambled order, then
        // overflow one at a time: victims must fall out precisely in
        // last-touch order.
        let cache = ShardedCache::<String>::new(4, 1);
        for k in ["a", "b", "c", "d"] {
            cache.put(k.into(), k.to_uppercase());
        }
        // Recency (oldest → newest) becomes: b, d, a, c.
        cache.get("b");
        cache.get("d");
        cache.get("a");
        cache.get("c");

        cache.put("e".into(), "E".into());
        assert_eq!(cache.get("b"), None, "b was least recently touched");
        cache.put("f".into(), "F".into());
        assert_eq!(cache.get("d"), None, "then d");
        // a and c survive, plus the two newcomers.
        assert_eq!(cache.get("a").as_deref(), Some("A"));
        assert_eq!(cache.get("c").as_deref(), Some("C"));
        assert_eq!(cache.get("e").as_deref(), Some("E"));
        assert_eq!(cache.get("f").as_deref(), Some("F"));
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn overwriting_a_present_key_never_evicts() {
        let cache = ShardedCache::<String>::new(2, 1);
        cache.put("a".into(), "1".into());
        cache.put("b".into(), "2".into());
        // Shard is full, but "a" is present: replace in place.
        cache.put("a".into(), "3".into());
        assert_eq!(cache.get("a").as_deref(), Some("3"));
        assert_eq!(cache.get("b").as_deref(), Some("2"));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn put_refreshes_recency_like_get() {
        let cache = ShardedCache::<String>::new(2, 1);
        cache.put("a".into(), "1".into());
        cache.put("b".into(), "2".into());
        cache.put("a".into(), "1b".into()); // a is now the newest
        cache.put("c".into(), "3".into());
        assert_eq!(cache.get("b"), None, "b was LRU after a's re-put");
        assert_eq!(cache.get("a").as_deref(), Some("1b"));
    }

    #[test]
    fn clear_empties_all_shards() {
        let cache = ShardedCache::<String>::new(32, 4);
        for i in 0..20 {
            cache.put(format!("k{i}"), "v".into());
        }
        assert!(!cache.is_empty());
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn concurrent_access_is_safe() {
        let cache = std::sync::Arc::new(ShardedCache::<String>::new(128, 8));
        std::thread::scope(|scope| {
            for t in 0..4 {
                let cache = cache.clone();
                scope.spawn(move || {
                    for i in 0..200 {
                        let key = format!("k{}", (t * 31 + i) % 50);
                        if cache.get(&key).is_none() {
                            cache.put(key, format!("{i}"));
                        }
                    }
                });
            }
        });
        assert!(cache.len() <= 128);
    }
}
