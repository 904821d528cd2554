//! The LRU result cache with byte-budget accounting.
//!
//! Keys are `(series name, series version, canonical query key)` — the
//! query key embeds [`valmod_core::ValmodConfig::cache_key`], so two
//! requests that differ only in execution knobs (thread count, unreduced
//! exclusion fractions) share an entry, while anything result-affecting
//! (length range, `p`, exclusion policy, top-k…) splits them. Versioned
//! keys make stale hits structurally impossible; on top of that, appends
//! *actively purge* a series' old entries so a hot store can't pin dead
//! results in the budget until eviction reaches them.

use std::collections::HashMap;
use std::sync::Arc;

use valmod_obs::{Counter, Registry};

use crate::value::Value;

/// Cache key: series identity + data version + canonical query.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Series name.
    pub series: String,
    /// Series version the result was computed against.
    pub version: u64,
    /// Canonical query description (kind, parameters, config cache key).
    pub query: String,
}

#[derive(Debug)]
struct Entry {
    value: Arc<Value>,
    bytes: usize,
    last_used: u64,
}

/// The result cache's event counters in the engine's registry, bound once.
/// The cache counts what happens inside it (evictions, invalidations); the
/// engine counts its probes (hits, admission misses). STATS' `cache`
/// section reads these same cells.
#[derive(Debug, Clone)]
pub struct CacheCounters {
    /// Probes that found a live entry.
    pub(crate) hit: Counter,
    /// Admission probes that missed.
    pub(crate) miss: Counter,
    /// Entries evicted to stay within the byte budget.
    pub(crate) evictions: Counter,
    /// Entries purged by series invalidation (append/replace).
    pub(crate) invalidated: Counter,
}

impl CacheCounters {
    /// Binds (registering on first use) every counter in `registry`.
    pub fn bind(registry: &Registry) -> Self {
        CacheCounters {
            hit: registry.counter("serve.cache.hit"),
            miss: registry.counter("serve.cache.miss"),
            evictions: registry.counter("serve.cache.evictions"),
            invalidated: registry.counter("serve.cache.invalidated"),
        }
    }
}

/// An LRU cache of encoded query results, bounded by approximate bytes.
#[derive(Debug)]
pub struct ResultCache {
    budget: usize,
    used: usize,
    tick: u64,
    map: HashMap<CacheKey, Entry>,
    counters: CacheCounters,
}

impl ResultCache {
    /// A cache bounded by `budget` bytes (0 disables caching entirely) that
    /// counts its evictions and invalidations into `counters`.
    pub fn new(budget: usize, counters: CacheCounters) -> Self {
        ResultCache { budget, used: 0, tick: 0, map: HashMap::new(), counters }
    }

    /// Looks up `key`, refreshing its recency on a hit. Counts nothing: the
    /// caller knows whether the probe is an admission.
    pub fn get(&mut self, key: &CacheKey) -> Option<Arc<Value>> {
        self.tick += 1;
        let entry = self.map.get_mut(key)?;
        entry.last_used = self.tick;
        Some(Arc::clone(&entry.value))
    }

    /// Inserts a result, evicting least-recently-used entries until the
    /// budget holds. A result larger than the whole budget is simply not
    /// cached (the query still succeeds — the cache only ever trades
    /// memory for recomputation, never correctness).
    pub fn insert(&mut self, key: CacheKey, value: Arc<Value>) {
        let bytes = entry_bytes(&key, &value);
        if bytes > self.budget {
            return;
        }
        self.tick += 1;
        if let Some(old) = self.map.remove(&key) {
            self.used -= old.bytes;
        }
        self.used += bytes;
        self.map.insert(key, Entry { value, bytes, last_used: self.tick });
        while self.used > self.budget {
            // O(n) scan per eviction: entry counts are small (each entry is
            // a whole query result), so a heap would be overkill.
            let lru = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
                .expect("used > budget implies non-empty");
            let e = self.map.remove(&lru).expect("key just observed");
            self.used -= e.bytes;
            self.counters.evictions.incr();
        }
    }

    /// Drops every entry for `series`, any version (append/replace path).
    pub fn invalidate_series(&mut self, series: &str) {
        let stale: Vec<CacheKey> =
            self.map.keys().filter(|k| k.series == series).cloned().collect();
        for key in stale {
            let e = self.map.remove(&key).expect("key just observed");
            self.used -= e.bytes;
            self.counters.invalidated.incr();
        }
    }

    /// Live entry count.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Bytes currently accounted against the budget.
    pub fn used_bytes(&self) -> usize {
        self.used
    }

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> usize {
        self.budget
    }
}

/// Bytes one entry charges against the budget: every key component —
/// including the fixed-width `version` — plus the encoded result. The
/// version's 8 bytes used to be dropped from the sum, slowly understating
/// `used` relative to real footprint on version-heavy workloads.
fn entry_bytes(key: &CacheKey, value: &Value) -> usize {
    key.series.len() + std::mem::size_of_val(&key.version) + key.query.len() + value.encode().len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(series: &str, version: u64, query: &str) -> CacheKey {
        CacheKey { series: series.into(), version, query: query.into() }
    }

    fn payload(n: usize) -> Arc<Value> {
        Arc::new(Value::Arr(vec![Value::Num(1.0); n]))
    }

    /// A cache over a fresh registry, and that registry to read its counts.
    fn counted(budget: usize) -> (ResultCache, Registry) {
        let registry = Registry::new();
        (ResultCache::new(budget, CacheCounters::bind(&registry)), registry)
    }

    fn count(registry: &Registry, key: &str) -> u64 {
        registry.counter(key).get()
    }

    #[test]
    fn hit_miss_and_versioning() {
        let (mut cache, registry) = counted(10_000);
        assert!(cache.get(&key("a", 1, "q")).is_none());
        cache.insert(key("a", 1, "q"), payload(4));
        assert!(cache.get(&key("a", 1, "q")).is_some());
        // A different version or query is a different entry.
        assert!(cache.get(&key("a", 2, "q")).is_none());
        assert!(cache.get(&key("a", 1, "q2")).is_none());
        // Probes are the caller's to count.
        assert_eq!(
            (count(&registry, "serve.cache.hit"), count(&registry, "serve.cache.miss")),
            (0, 0)
        );
    }

    #[test]
    fn lru_eviction_respects_recency_and_budget() {
        // Budget sized for two payloads; inserting a third evicts the LRU.
        let one = entry_bytes(&key("a", 1, "q1"), &payload(8));
        let (mut cache, registry) = counted(2 * one + 4);
        cache.insert(key("a", 1, "q1"), payload(8));
        cache.insert(key("a", 1, "q2"), payload(8));
        assert!(cache.get(&key("a", 1, "q1")).is_some()); // refresh q1
        cache.insert(key("a", 1, "q3"), payload(8));
        assert!(cache.get(&key("a", 1, "q2")).is_none(), "q2 was LRU");
        assert!(cache.get(&key("a", 1, "q1")).is_some());
        assert!(cache.get(&key("a", 1, "q3")).is_some());
        assert_eq!(count(&registry, "serve.cache.evictions"), 1);
        assert!(cache.used_bytes() <= cache.budget_bytes());
    }

    #[test]
    fn oversized_results_are_skipped() {
        let mut cache = counted(16).0;
        cache.insert(key("a", 1, "q"), payload(1000));
        assert!(cache.is_empty());
        assert_eq!(cache.used_bytes(), 0);
    }

    #[test]
    fn reinsert_replaces_without_double_accounting() {
        let mut cache = counted(10_000).0;
        cache.insert(key("a", 1, "q"), payload(8));
        let used = cache.used_bytes();
        cache.insert(key("a", 1, "q"), payload(8));
        assert_eq!(cache.used_bytes(), used);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn invalidate_series_purges_all_versions() {
        let (mut cache, registry) = counted(10_000);
        cache.insert(key("a", 1, "q1"), payload(2));
        cache.insert(key("a", 2, "q1"), payload(2));
        cache.insert(key("b", 1, "q1"), payload(2));
        cache.invalidate_series("a");
        assert_eq!(cache.len(), 1);
        assert!(cache.get(&key("b", 1, "q1")).is_some());
        assert_eq!(count(&registry, "serve.cache.invalidated"), 2);
    }

    #[test]
    fn zero_budget_disables_caching() {
        let mut cache = counted(0).0;
        cache.insert(key("a", 1, "q"), payload(1));
        assert!(cache.get(&key("a", 1, "q")).is_none());
    }

    #[test]
    fn entry_bytes_counts_every_key_component() {
        let k = key("ab", 7, "qqq");
        let v = payload(3);
        // series (2) + version (8) + query (3) + encoded value.
        assert_eq!(entry_bytes(&k, &v), 2 + 8 + 3 + v.encode().len());
    }

    mod accounting_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// After any randomized insert / replace / invalidate sequence,
            /// the tracked byte total equals the sum recomputed from the
            /// live entries, and never exceeds the budget.
            #[test]
            fn used_bytes_equals_recomputed_sum(
                ops in prop::collection::vec(
                    (0usize..4, 0usize..3, 0u64..3, 0usize..3, 1usize..20),
                    1..120,
                ),
                budget in 64usize..2048,
            ) {
                let series = ["a", "bb", "ccc"];
                let queries = ["q", "motifs l=16", "profile l_min=8 l_max=64"];
                let mut cache = counted(budget).0;
                for (op, s, version, q, size) in ops {
                    let k = key(series[s], version, queries[q]);
                    match op {
                        // Insert and replace exercise the same path; the
                        // randomized key means some inserts land on live
                        // entries (replace) and some do not.
                        0 | 1 => cache.insert(k, payload(size)),
                        2 => { cache.get(&k); }
                        _ => cache.invalidate_series(series[s]),
                    }
                    let mut recomputed = 0usize;
                    for (k, e) in &cache.map {
                        prop_assert_eq!(e.bytes, entry_bytes(k, &e.value));
                        recomputed += e.bytes;
                    }
                    prop_assert_eq!(cache.used_bytes(), recomputed);
                    prop_assert!(cache.used_bytes() <= budget);
                }
            }

            /// The striped form of the invariant: a total budget split
            /// across per-stripe caches (as the engine does), mutated
            /// concurrently from several threads with every op routed to
            /// its series' stripe. Whatever the interleaving, each
            /// stripe's tracked total must equal its recomputed sum and
            /// stay within its slice of the budget — and the slices must
            /// sum to exactly the configured total.
            #[test]
            fn striped_accounting_survives_concurrent_mutation(
                per_thread_ops in prop::collection::vec(
                    prop::collection::vec(
                        (0usize..4, 0usize..6, 0u64..3, 0usize..3, 1usize..24),
                        1..60,
                    ),
                    2..5,
                ),
                total_budget in 256usize..4096,
            ) {
                use std::sync::{Arc, Mutex};

                const STRIPES: usize = 4;
                const SERIES: [&str; 6] = ["a", "bb", "ccc", "dddd", "e5", "f6"];
                const QUERIES: [&str; 3] = ["q", "motifs l=16", "discords l_min=8 l_max=64"];
                let budgets = crate::engine::split_budget(total_budget, STRIPES);
                prop_assert_eq!(budgets.iter().sum::<usize>(), total_budget);
                let caches: Arc<Vec<Mutex<ResultCache>>> = Arc::new(
                    budgets.iter().map(|b| Mutex::new(counted(*b).0)).collect(),
                );
                let threads: Vec<_> = per_thread_ops
                    .into_iter()
                    .map(|ops| {
                        let caches = Arc::clone(&caches);
                        std::thread::spawn(move || {
                            for (op, s, version, q, size) in ops {
                                let name = SERIES[s];
                                let stripe = crate::store::stripe_of(name, STRIPES);
                                let mut cache = caches[stripe].lock().unwrap();
                                let k = key(name, version, QUERIES[q]);
                                match op {
                                    0 | 1 => cache.insert(k, payload(size)),
                                    2 => { cache.get(&k); }
                                    _ => cache.invalidate_series(name),
                                }
                            }
                        })
                    })
                    .collect();
                for t in threads {
                    t.join().expect("stripe mutator thread");
                }
                for (i, cache) in caches.iter().enumerate() {
                    let cache = cache.lock().unwrap();
                    let mut recomputed = 0usize;
                    for (k, e) in &cache.map {
                        prop_assert_eq!(e.bytes, entry_bytes(k, &e.value));
                        recomputed += e.bytes;
                    }
                    prop_assert_eq!(cache.used_bytes(), recomputed);
                    prop_assert!(
                        cache.used_bytes() <= budgets[i],
                        "stripe {} over budget: {} > {}",
                        i,
                        cache.used_bytes(),
                        budgets[i]
                    );
                }
            }
        }
    }
}
