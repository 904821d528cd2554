//! The live metric store: a sharded map from key to atomic cell.
//!
//! Lookups take a sharded read lock once to bind a handle; after that
//! every update is a relaxed atomic op. Hot loops should bind handles
//! ([`Registry::counter`] / [`Registry::histogram`]) outside the loop;
//! cold paths can go through the [`Recorder`] impl, which performs one
//! map lookup per call.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use crate::histogram::{buckets, Histogram};
use crate::recorder::{Recorder, SharedRecorder};
use crate::snapshot::{MetricSnapshot, Snapshot};

const SHARDS: usize = 8;

#[derive(Clone)]
enum Metric {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<Histogram>),
}

/// Sharded, cheaply cloneable metric registry. All clones share state.
///
/// A key's kind (counter / gauge / histogram) is fixed by its first
/// registration; a later access under a different kind returns a
/// detached cell that is not exported, rather than panicking in an
/// instrumented hot path.
#[derive(Clone)]
pub struct Registry {
    shards: Arc<[RwLock<HashMap<String, Metric>>; SHARDS]>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry { shards: Arc::new(std::array::from_fn(|_| RwLock::new(HashMap::new()))) }
    }

    fn shard(&self, key: &str) -> &RwLock<HashMap<String, Metric>> {
        // FNV-1a over the key bytes; shard count is a power of two.
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for byte in key.bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        &self.shards[(hash as usize) % SHARDS]
    }

    fn get_or_insert(&self, key: &str, make: impl FnOnce() -> Metric) -> Metric {
        let shard = self.shard(key);
        if let Some(metric) = shard.read().expect("obs shard poisoned").get(key) {
            return metric.clone();
        }
        let mut map = shard.write().expect("obs shard poisoned");
        map.entry(key.to_string()).or_insert_with(make).clone()
    }

    /// Bind (registering on first use) the counter named `key`.
    pub fn counter(&self, key: &str) -> Counter {
        match self.get_or_insert(key, || Metric::Counter(Arc::new(AtomicU64::new(0)))) {
            Metric::Counter(cell) => Counter(cell),
            _ => Counter(Arc::new(AtomicU64::new(0))),
        }
    }

    /// Bind (registering on first use) the gauge named `key`.
    pub fn gauge(&self, key: &str) -> Gauge {
        match self.get_or_insert(key, || Metric::Gauge(Arc::new(AtomicU64::new(0.0f64.to_bits()))))
        {
            Metric::Gauge(cell) => Gauge(cell),
            _ => Gauge(Arc::new(AtomicU64::new(0.0f64.to_bits()))),
        }
    }

    /// Bind the histogram named `key`, registering it with the default
    /// `_us` latency layout ([`buckets::default_latency_us`]) if new.
    pub fn histogram(&self, key: &str) -> Arc<Histogram> {
        self.histogram_by(key, buckets::default_latency_us)
    }

    /// Bind the histogram named `key`, registering it with `bounds` if
    /// new. An existing histogram keeps its original bounds (first
    /// registration wins).
    pub fn histogram_with(&self, key: &str, bounds: &[f64]) -> Arc<Histogram> {
        self.histogram_by(key, || bounds.to_vec())
    }

    /// Bind the histogram named `key`; `bounds` builds its layout only when
    /// the key is new.
    fn histogram_by(&self, key: &str, bounds: impl Fn() -> Vec<f64>) -> Arc<Histogram> {
        match self.get_or_insert(key, || Metric::Histogram(Arc::new(Histogram::new(bounds())))) {
            Metric::Histogram(hist) => hist,
            _ => Arc::new(Histogram::new(bounds())),
        }
    }

    /// Copy every metric out into a key-sorted [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        let mut entries = Vec::new();
        for shard in self.shards.iter() {
            for (key, metric) in shard.read().expect("obs shard poisoned").iter() {
                let value = match metric {
                    Metric::Counter(cell) => MetricSnapshot::Counter(cell.load(Ordering::Relaxed)),
                    Metric::Gauge(cell) => {
                        MetricSnapshot::Gauge(f64::from_bits(cell.load(Ordering::Relaxed)))
                    }
                    Metric::Histogram(hist) => MetricSnapshot::Histogram(hist.snapshot()),
                };
                entries.push((key.clone(), value));
            }
        }
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Snapshot { entries }
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let keys: usize = self.shards.iter().map(|s| s.read().map(|m| m.len()).unwrap_or(0)).sum();
        f.debug_struct("Registry").field("keys", &keys).finish()
    }
}

impl Recorder for Registry {
    fn add(&self, key: &str, delta: u64) {
        self.counter(key).add(delta);
    }

    fn set(&self, key: &str, value: f64) {
        self.gauge(key).set(value);
    }

    fn observe(&self, key: &str, value: f64) {
        self.histogram(key).record(value);
    }

    fn observe_many(&self, key: &str, values: &[f64]) {
        let hist = self.histogram(key);
        for &value in values {
            hist.record(value);
        }
    }
}

impl From<Registry> for SharedRecorder {
    fn from(registry: Registry) -> Self {
        SharedRecorder::new(Arc::new(registry))
    }
}

/// Pre-bound counter handle: one relaxed atomic add per update.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add `delta`.
    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Add one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Pre-bound gauge handle: an `f64` cell with last-write-wins updates.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Overwrite the gauge value.
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Raise the gauge to `value` if it is higher than the current
    /// reading (a lock-free running maximum — used for high-water marks
    /// like the peak number of concurrently active computes). Loses races
    /// only to strictly larger values, so the recorded peak never goes
    /// down. NaN is ignored.
    pub fn set_max(&self, value: f64) {
        if value.is_nan() {
            return;
        }
        let mut current = self.0.load(Ordering::Relaxed);
        while value > f64::from_bits(current) {
            match self.0.compare_exchange_weak(
                current,
                value.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => current = seen,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_state_across_clones() {
        let reg = Registry::new();
        let clone = reg.clone();
        reg.counter("a.b").add(2);
        clone.counter("a.b").incr();
        assert_eq!(reg.counter("a.b").get(), 3);
    }

    #[test]
    fn gauge_set_max_is_a_running_maximum() {
        let reg = Registry::new();
        let g = reg.gauge("peak");
        g.set_max(2.0);
        g.set_max(1.0);
        assert_eq!(g.get(), 2.0);
        g.set_max(3.5);
        assert_eq!(g.get(), 3.5);
        g.set_max(f64::NAN);
        assert_eq!(g.get(), 3.5);
        // A plain set still overwrites (it is a gauge first).
        g.set(0.5);
        assert_eq!(g.get(), 0.5);
    }

    #[test]
    fn recorder_impl_routes_to_the_right_kinds() {
        let reg = Registry::new();
        let rec: &dyn Recorder = &reg;
        assert!(rec.enabled());
        rec.add("c", 5);
        rec.set("g", -1.5);
        rec.observe("h", 3.0);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("c"), Some(5));
        assert_eq!(snap.gauge("g"), Some(-1.5));
        assert_eq!(snap.histogram("h").unwrap().count, 1);
    }

    #[test]
    fn observe_many_records_like_one_observe_per_value() {
        let (many, one) = (Registry::new(), Registry::new());
        many.histogram_with("h", &[1.0, 2.0]);
        one.histogram_with("h", &[1.0, 2.0]);
        let values = [0.5, 1.5, 3.0, f64::NAN, 1.0];
        many.observe_many("h", &values);
        for v in values {
            one.observe("h", v);
        }
        let (a, b) = (many.snapshot(), one.snapshot());
        let (a, b) = (a.histogram("h").unwrap(), b.histogram("h").unwrap());
        assert_eq!((a.count, a.sum.to_bits(), &a.counts), (b.count, b.sum.to_bits(), &b.counts));
        assert_eq!(a.count, 4, "NaN is rejected, not counted");
    }

    #[test]
    fn kind_conflicts_return_detached_cells() {
        let reg = Registry::new();
        reg.counter("k").add(7);
        // Same key accessed as a histogram: detached, original untouched.
        let hist = reg.histogram("k");
        hist.record(1.0);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("k"), Some(7));
        assert!(snap.histogram("k").is_none());
    }

    #[test]
    fn first_histogram_registration_wins_bounds() {
        let reg = Registry::new();
        let first = reg.histogram_with("h", &[1.0, 2.0]);
        let second = reg.histogram_with("h", &[10.0]);
        assert_eq!(first.bounds(), second.bounds());
        assert_eq!(second.bounds(), &[1.0, 2.0]);
    }

    #[test]
    fn snapshot_is_sorted_by_key() {
        let reg = Registry::new();
        for key in ["z.last", "a.first", "m.mid"] {
            reg.counter(key).incr();
        }
        let snap = reg.snapshot();
        let keys: Vec<&str> = snap.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["a.first", "m.mid", "z.last"]);
    }

    #[test]
    fn concurrent_registration_yields_one_cell() {
        let reg = Registry::new();
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let reg = reg.clone();
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        reg.counter("shared").incr();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(reg.counter("shared").get(), 4_000);
    }
}
