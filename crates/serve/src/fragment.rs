//! The per-length profile fragment cache behind the query planner.
//!
//! Where the result cache ([`crate::cache`]) stores *finished query
//! bodies* keyed by the whole request, this cache stores the reusable
//! intermediate: one [`LengthProfile`] per subsequence length, keyed by
//! `(series, version, anchor, ℓ, knobs)`. The **anchor** is the length at
//! which the producing segment computed its full matrix profile before
//! advancing via `ComputeSubMP` — a fragment is a pure function of that
//! tuple (see [`valmod_core::Valmod::run_lengths_on`]), so replaying it is
//! bit-identical to recomputing it, for any client and any query shape.
//!
//! `knobs` canonicalises the result-affecting per-length parameters (`p`
//! and the reduced exclusion policy); ranking parameters (`top`, `k`,
//! `radius`) are deliberately excluded, so a MOTIFS and a DISCORDS query
//! over the same range share fragments. Versioned keys make stale hits
//! structurally impossible, exactly as in the result cache.
//!
//! ## Incremental extension across appends
//!
//! An `APPEND` does **not** purge this cache. Fragments keyed by the old
//! version simply stop matching (their version is the staleness
//! watermark); they are garbage-collected lazily by
//! [`FragmentCache::invalidate_stale`] on the next planner touch. What
//! makes the old work *reusable* rather than merely dead is the second
//! map: each computed segment also parks its [`SegmentState`] — the
//! advance-ready capture of its anchor profile and top-`p` partials —
//! keyed by `(series, anchor, knobs)` **without** a version. On the next
//! query the planner takes the state, extends it over the appended tail
//! (`O(k·n)` instead of `O(n²)`), replays it, and re-inserts fragments
//! under the new version — bit-identical to a cold recompute, as
//! `valmod-check`'s extension oracle enforces. Only a `LOAD` (replace)
//! purges both maps, because a replace rewrites history instead of
//! growing it. Both maps share one byte budget and one LRU clock.
//!
//! ## Parking tiers
//!
//! A parked state only pays off if its series is appended to, and a
//! state costs as much as a few dozen fragments. So a state starts
//! **speculative**: it may take only free space (or space held by other
//! speculative states) and is evicted before any fragment. Once it has
//! been extended ([`SegmentState::was_extended`]) it is **proven** for
//! good and competes with fragments on the LRU clock. A **pinned** state (a
//! hot length's, see [`crate::planner`]) is outside the budget and the clock.

use std::collections::HashMap;
use std::sync::Arc;

use valmod_core::{LengthProfile, SegmentState};
use valmod_obs::{Counter, Registry};

/// Fragment key: series identity + data version + producing anchor +
/// length + canonical per-length knobs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FragmentKey {
    /// Series name.
    pub series: String,
    /// Series version the fragment was computed against.
    pub version: u64,
    /// Anchor length of the producing segment (where the full profile ran).
    pub anchor: usize,
    /// Subsequence length of this fragment.
    pub l: usize,
    /// Canonical per-length knobs, e.g. `p=50;excl=1/2`.
    pub knobs: String,
}

/// Key of a parked [`SegmentState`]: no version — the state is *advanced*
/// across versions (extended over appended samples) rather than invalidated
/// by them. Its internal sample count is the watermark that tells the
/// planner how far behind the series it is. The generation (the version a
/// `LOAD` started the series at) keeps a state parked late by a query that
/// raced a replace from ever serving the replacement.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StateKey {
    /// Series name.
    pub series: String,
    /// Version the series' generation was loaded at.
    pub generation: u64,
    /// Anchor length of the captured segment.
    pub anchor: usize,
    /// Canonical per-length knobs, e.g. `p=50;excl=1/2`.
    pub knobs: String,
}

#[derive(Debug)]
struct Entry {
    fragment: Arc<LengthProfile>,
    bytes: usize,
    last_used: u64,
}

#[derive(Debug)]
struct StateEntry {
    state: SegmentState,
    bytes: usize,
    last_used: u64,
}

/// The fragment cache's event counters in the engine's registry, bound
/// once. The cache counts what happens inside it (evictions, invalidations,
/// refused states); the planner counts what a plan does with it (fragments
/// served, computed, extended). STATS' `planner` section reads these same
/// cells.
#[derive(Debug, Clone)]
pub struct FragmentCounters {
    /// Fragments served from the cache.
    pub(crate) hit: Counter,
    /// Fragments computed: a segment not cached whole is recomputed whole.
    pub(crate) miss: Counter,
    /// Parked states extended in place over appended samples.
    pub(crate) extended: Counter,
    /// States not parked: larger than the whole budget, or speculative
    /// without the free space to hold them.
    pub(crate) state_refused: Counter,
    /// Fragments and parked states evicted to stay within the byte budget.
    pub(crate) evictions: Counter,
    /// Fragments purged: eagerly on replace, lazily on the next planner
    /// touch after an append.
    pub(crate) invalidated: Counter,
}

impl FragmentCounters {
    /// Binds (registering on first use) every counter in `registry`.
    pub fn bind(registry: &Registry) -> Self {
        FragmentCounters {
            hit: registry.counter("serve.fragment.hit"),
            miss: registry.counter("serve.fragment.miss"),
            extended: registry.counter("serve.fragment.extended"),
            state_refused: registry.counter("serve.fragment.state_refused"),
            evictions: registry.counter("serve.fragment.evictions"),
            invalidated: registry.counter("serve.fragment.invalidated"),
        }
    }
}

/// An LRU cache of per-length profile fragments, bounded by approximate
/// bytes (the dominant cost is the `mp`/`ip` vectors, ~16 bytes per row).
#[derive(Debug)]
pub struct FragmentCache {
    budget: usize,
    used: usize,
    tick: u64,
    map: HashMap<FragmentKey, Entry>,
    states: HashMap<StateKey, StateEntry>,
    pinned: HashMap<StateKey, SegmentState>,
    counters: FragmentCounters,
}

impl FragmentCache {
    /// A cache bounded by `budget` bytes (0 disables fragment reuse — the
    /// planner then recomputes every segment, which is always correct) that
    /// counts its evictions, invalidations and refused states into
    /// `counters`.
    pub fn new(budget: usize, counters: FragmentCounters) -> Self {
        FragmentCache {
            budget,
            used: 0,
            tick: 0,
            map: HashMap::new(),
            states: HashMap::new(),
            pinned: HashMap::new(),
            counters,
        }
    }

    /// All-or-nothing lookup of one planned segment: the fragments for
    /// every length `anchor..=hi` under the same `(series, version,
    /// anchor, knobs)`. Returns `None` unless **every** length is present,
    /// because a partially cached segment is recomputed whole from its
    /// anchor (the advance chain is only valid from the anchor's full
    /// profile). Counts nothing: the planner counts what it serves and
    /// what it computes.
    pub fn get_segment(
        &mut self,
        series: &str,
        version: u64,
        anchor: usize,
        hi: usize,
        knobs: &str,
    ) -> Option<Vec<Arc<LengthProfile>>> {
        let key = |l: usize| FragmentKey {
            series: series.into(),
            version,
            anchor,
            l,
            knobs: knobs.into(),
        };
        if (anchor..=hi).any(|l| !self.map.contains_key(&key(l))) {
            return None;
        }
        self.tick += 1;
        let mut out = Vec::with_capacity(hi - anchor + 1);
        for l in anchor..=hi {
            let entry = self.map.get_mut(&key(l)).expect("all lengths present");
            entry.last_used = self.tick;
            out.push(Arc::clone(&entry.fragment));
        }
        Some(out)
    }

    /// Inserts a fragment, evicting least-recently-used fragments until the
    /// budget holds. A fragment larger than the whole budget is simply not
    /// cached — the planner only ever trades memory for recomputation,
    /// never correctness.
    pub fn insert(&mut self, key: FragmentKey, fragment: Arc<LengthProfile>) {
        let bytes = entry_bytes(&key, &fragment);
        if bytes > self.budget {
            return;
        }
        self.tick += 1;
        if let Some(old) = self.map.remove(&key) {
            self.used -= old.bytes;
        }
        self.used += bytes;
        self.map.insert(key, Entry { fragment, bytes, last_used: self.tick });
        self.evict_to_budget();
    }

    /// Takes the parked segment state under `(series, generation, anchor,
    /// knobs)` out of the cache, if any, transferring ownership (and its
    /// bytes) to the caller — the planner extends/replays it, then returns
    /// it via [`FragmentCache::put_state`].
    pub fn take_state(
        &mut self,
        series: &str,
        generation: u64,
        anchor: usize,
        knobs: &str,
    ) -> Option<SegmentState> {
        let key = StateKey { series: series.into(), generation, anchor, knobs: knobs.into() };
        if let Some(state) = self.pinned.remove(&key) {
            return Some(state);
        }
        let entry = self.states.remove(&key)?;
        self.used -= entry.bytes;
        Some(entry.state)
    }

    /// Parks a segment state for future extension, replacing any previous
    /// state under the same key. A `pinned` state always parks, outside the
    /// budget. Otherwise a speculative state (never extended) may
    /// only take free space or displace other speculative states; a proven
    /// one may displace anything older on the LRU clock. A state that does
    /// not fit is refused — and the previous one is still dropped — so the
    /// planner recomputes, which is always correct. Returns whether the
    /// state was parked.
    pub fn put_state(
        &mut self,
        series: &str,
        generation: u64,
        anchor: usize,
        knobs: &str,
        state: SegmentState,
        pinned: bool,
    ) -> bool {
        let key = StateKey { series: series.into(), generation, anchor, knobs: knobs.into() };
        if let Some(old) = self.states.remove(&key) {
            self.used -= old.bytes;
        }
        if pinned {
            self.pinned.insert(key, state);
            return true;
        }
        self.pinned.remove(&key);
        let bytes = state_bytes(&key, &state);
        let room = if state.was_extended() {
            self.budget
        } else {
            self.budget - (self.used - self.speculative_bytes())
        };
        if bytes > room {
            self.counters.state_refused.incr();
            return false;
        }
        self.tick += 1;
        self.used += bytes;
        self.states.insert(key, StateEntry { state, bytes, last_used: self.tick });
        self.evict_to_budget();
        true
    }

    /// Bytes held by speculative (never extended) states.
    fn speculative_bytes(&self) -> usize {
        self.states.values().filter(|e| !e.state.was_extended()).map(|e| e.bytes).sum()
    }

    /// Evicts until the budget holds: speculative states first (LRU among
    /// them), then least-recently-used entries — fragments and proven
    /// states compete under one clock.
    fn evict_to_budget(&mut self) {
        while self.used > self.budget {
            let speculative = self
                .states
                .iter()
                .filter(|(_, e)| !e.state.was_extended())
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone());
            if let Some(key) = speculative {
                let e = self.states.remove(&key).expect("key just observed");
                self.used -= e.bytes;
                self.counters.evictions.incr();
                continue;
            }
            let frag_lru = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, e)| (k.clone(), e.last_used));
            let state_lru = self
                .states
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, e)| (k.clone(), e.last_used));
            let evict_fragment = match (&frag_lru, &state_lru) {
                (Some((_, f)), Some((_, s))) => f <= s,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => unreachable!("used > budget implies non-empty"),
            };
            if evict_fragment {
                let (key, _) = frag_lru.expect("checked above");
                let e = self.map.remove(&key).expect("key just observed");
                self.used -= e.bytes;
            } else {
                let (key, _) = state_lru.expect("checked above");
                let e = self.states.remove(&key).expect("key just observed");
                self.used -= e.bytes;
            }
            self.counters.evictions.incr();
        }
    }

    /// Drops every fragment **and** parked state for `series`, pinned or
    /// not, any version. This is the replace/`LOAD` path: a replace rewrites
    /// the series' history, so nothing computed against it can be extended.
    pub fn invalidate_series(&mut self, series: &str) {
        self.drop_where(|k| k.series == series, |k| k.series == series);
    }

    /// Garbage-collects fragments for `series` whose version watermark is
    /// behind `current_version` — the lazy-append path — and states, pinned
    /// or not, of a generation before `generation` (parked by a query that
    /// raced a replace). States of this generation are deliberately kept:
    /// they are what the stale fragments get *extended from*. Returns the
    /// number of fragments collected.
    pub fn invalidate_stale(
        &mut self,
        series: &str,
        generation: u64,
        current_version: u64,
    ) -> usize {
        self.drop_where(
            |k| k.series == series && k.version < current_version,
            |k| k.series == series && k.generation < generation,
        )
    }

    /// Drops the fragments and the states (pinned or not) whose keys the
    /// predicates pick, counting the fragments as invalidated. Returns how
    /// many fragments went.
    fn drop_where(
        &mut self,
        fragment: impl Fn(&FragmentKey) -> bool,
        state: impl Fn(&StateKey) -> bool,
    ) -> usize {
        let (used, before) = (&mut self.used, self.map.len());
        self.map.retain(|k, e| {
            let dropped = fragment(k);
            *used -= if dropped { e.bytes } else { 0 };
            !dropped
        });
        self.states.retain(|k, e| {
            let dropped = state(k);
            *used -= if dropped { e.bytes } else { 0 };
            !dropped
        });
        self.pinned.retain(|k, _| !state(k));
        let count = before - self.map.len();
        self.counters.invalidated.add(count as u64);
        count
    }

    /// Live fragment count (parked states not included).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Number of parked segment states.
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// Number of parked states in the proven tier.
    pub fn proven_count(&self) -> usize {
        self.states.values().filter(|e| e.state.was_extended()).count()
    }

    /// Bytes the parked states charge against the budget.
    pub fn parked_bytes(&self) -> usize {
        self.states.values().map(|e| e.bytes).sum()
    }

    /// Pinned states and the bytes they hold, outside the budget.
    pub fn pinned(&self) -> (usize, usize) {
        (self.pinned.len(), self.pinned.iter().map(|(k, s)| state_bytes(k, s)).sum())
    }

    /// Whether the cache holds neither fragments nor states, pinned or not.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty() && self.states.is_empty() && self.pinned.is_empty()
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

/// Bytes one fragment charges against the budget: the key's variable parts
/// plus the profile's heap footprint.
fn entry_bytes(key: &FragmentKey, fragment: &LengthProfile) -> usize {
    key.series.len()
        + std::mem::size_of_val(&key.version)
        + std::mem::size_of_val(&key.anchor)
        + std::mem::size_of_val(&key.l)
        + key.knobs.len()
        + fragment.heap_bytes()
}

/// Bytes one parked state holds: key plus the state's heap footprint
/// (anchor profile, top-`p` partials if any, and the qt tail).
fn state_bytes(key: &StateKey, state: &SegmentState) -> usize {
    key.series.len() + std::mem::size_of_val(&key.anchor) + key.knobs.len() + state.heap_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use valmod_core::{LengthMethod, Valmod};
    use valmod_data::generators::random_walk;
    use valmod_mp::ProfiledSeries;
    use valmod_obs::SharedRecorder;

    fn fragment(l: usize, rows: usize) -> Arc<LengthProfile> {
        Arc::new(LengthProfile {
            l,
            mp: vec![1.0; rows],
            ip: vec![0; rows],
            method: LengthMethod::FullProfile,
            motif: None,
            known_entries: rows,
            valid_rows: rows,
            nonvalid_rows: 0,
            recomputed_rows: 0,
        })
    }

    /// A cache counting into a registry of its own, and that registry.
    fn counted(budget: usize) -> (FragmentCache, Registry) {
        let registry = Registry::new();
        (FragmentCache::new(budget, FragmentCounters::bind(&registry)), registry)
    }

    /// The `serve.fragment.<event>` count in `registry`.
    fn count(registry: &Registry, event: &str) -> u64 {
        registry.counter(&format!("serve.fragment.{event}")).get()
    }

    fn key(series: &str, version: u64, anchor: usize, l: usize) -> FragmentKey {
        FragmentKey { series: series.into(), version, anchor, l, knobs: "p=8;excl=1/2".into() }
    }

    fn fill_segment(cache: &mut FragmentCache, anchor: usize, hi: usize) {
        for l in anchor..=hi {
            cache.insert(key("s", 1, anchor, l), fragment(l, 32));
        }
    }

    #[test]
    fn segment_lookup_is_all_or_nothing() {
        let (mut cache, registry) = counted(1 << 20);
        fill_segment(&mut cache, 16, 20);
        let seg = cache.get_segment("s", 1, 16, 20, "p=8;excl=1/2").unwrap();
        assert_eq!(seg.len(), 5);
        assert_eq!(seg[0].l, 16);
        assert_eq!(seg[4].l, 20);
        // One length short of the asked range: the whole lookup misses.
        assert!(cache.get_segment("s", 1, 16, 21, "p=8;excl=1/2").is_none());
        // Lookups are the planner's to count: it knows what it computes.
        assert_eq!((count(&registry, "hit"), count(&registry, "miss")), (0, 0));
    }

    #[test]
    fn keys_split_on_version_anchor_and_knobs() {
        let mut cache = counted(1 << 20).0;
        fill_segment(&mut cache, 16, 18);
        assert!(cache.get_segment("s", 2, 16, 18, "p=8;excl=1/2").is_none());
        assert!(cache.get_segment("s", 1, 17, 18, "p=8;excl=1/2").is_none());
        assert!(cache.get_segment("s", 1, 16, 18, "p=50;excl=1/2").is_none());
        assert!(cache.get_segment("s", 1, 16, 18, "p=8;excl=1/2").is_some());
    }

    #[test]
    fn lru_eviction_respects_budget() {
        let one = entry_bytes(&key("s", 1, 16, 16), &fragment(16, 32));
        let (mut cache, registry) = counted(2 * one + 8);
        cache.insert(key("s", 1, 16, 16), fragment(16, 32));
        cache.insert(key("s", 1, 16, 17), fragment(17, 32));
        // Refresh 16, insert a third: 17 is the LRU.
        assert!(cache.get_segment("s", 1, 16, 16, "p=8;excl=1/2").is_some());
        cache.insert(key("s", 1, 16, 18), fragment(18, 32));
        assert!(cache.get_segment("s", 1, 17, 17, "p=8;excl=1/2").is_none());
        assert_eq!(count(&registry, "evictions"), 1);
        assert!(cache.used_bytes() <= cache.budget_bytes());
    }

    /// A real advance-ready state over the first `n` samples of a fixed
    /// 240-sample walk, so tests can grow the series afterwards in the
    /// state's pinned frame.
    fn captured_state(n: usize, anchor: usize) -> (SegmentState, Vec<f64>) {
        let series = random_walk(240, 3);
        let ps = ProfiledSeries::from_values(&series[..n]).unwrap();
        let (_, state) =
            Valmod::new(anchor, anchor + 2).run_lengths_capturing(&ps, anchor, anchor + 2).unwrap();
        (state.expect("single-threaded runs capture"), series)
    }

    /// [`captured_state`] extended over `grow` more samples: a proven
    /// state.
    fn proven_state(n: usize, anchor: usize, grow: usize) -> SegmentState {
        let (mut state, series) = captured_state(n, anchor);
        let offset = ProfiledSeries::from_values(&series[..n]).unwrap().offset();
        let grown = ProfiledSeries::with_offset(&series[..n + grow], offset).unwrap();
        state.extend(&grown, &SharedRecorder::noop()).unwrap();
        assert!(state.was_extended());
        state
    }

    fn skey(knobs: &str) -> StateKey {
        StateKey { series: "s".into(), generation: 1, anchor: 8, knobs: knobs.into() }
    }

    #[test]
    fn speculative_put_state_never_evicts_a_fragment() {
        let (state, _) = captured_state(80, 8);
        let sbytes = state_bytes(&skey("p=8;excl=1/2"), &state);
        let fbytes = entry_bytes(&key("s", 1, 16, 16), &fragment(16, 32));
        // Two fragments leave less free space than the state needs.
        let (mut cache, registry) = counted(2 * fbytes + sbytes - 1);
        cache.insert(key("s", 1, 16, 16), fragment(16, 32));
        cache.insert(key("s", 1, 16, 17), fragment(17, 32));
        assert!(!cache.put_state("s", 1, 8, "p=8;excl=1/2", state.clone(), false), "no free room");
        assert_eq!(cache.len(), 2, "the fragments stay");
        assert_eq!(cache.state_count(), 0);
        assert_eq!(count(&registry, "evictions"), 0);
        assert_eq!(count(&registry, "state_refused"), 1);
        assert_eq!(cache.used_bytes(), 2 * fbytes);

        // With one fragment gone there is room, and another speculative
        // state is displaced to make it.
        let (mut cache, registry) = counted(fbytes + sbytes + sbytes / 2);
        cache.insert(key("s", 1, 16, 16), fragment(16, 32));
        assert!(cache.put_state("s", 1, 8, "p=8;excl=1/2", state.clone(), false));
        assert!(cache.put_state("s", 1, 8, "p=9;excl=1/2", state, false));
        assert_eq!(cache.len(), 1, "the fragment stays");
        assert_eq!(cache.state_count(), 1);
        assert!(cache.take_state("s", 1, 8, "p=9;excl=1/2").is_some(), "newest state kept");
        assert_eq!(count(&registry, "evictions"), 1);
        assert_eq!(count(&registry, "state_refused"), 0);
    }

    #[test]
    fn fragment_inserts_evict_speculative_states_first() {
        let (state, _) = captured_state(80, 8);
        let sbytes = state_bytes(&skey("p=8;excl=1/2"), &state);
        let fbytes = entry_bytes(&key("s", 1, 16, 16), &fragment(16, 32));
        let (mut cache, registry) = counted(sbytes + fbytes + fbytes / 2);
        // The fragment is older than the state, yet the state goes first.
        cache.insert(key("s", 1, 16, 16), fragment(16, 32));
        assert!(cache.put_state("s", 1, 8, "p=8;excl=1/2", state, false));
        cache.insert(key("s", 1, 16, 17), fragment(17, 32));
        assert_eq!(cache.state_count(), 0, "speculative state evicted before any fragment");
        assert_eq!(cache.len(), 2);
        assert_eq!(count(&registry, "evictions"), 1);
        assert_eq!(cache.parked_bytes(), 0);
    }

    #[test]
    fn a_proven_state_follows_the_lru_clock() {
        let state = proven_state(80, 8, 20);
        let sbytes = state_bytes(&skey("p=8;excl=1/2"), &state);
        let fbytes = entry_bytes(&key("s", 1, 16, 16), &fragment(16, 32));
        let (mut cache, registry) = counted(sbytes + fbytes + fbytes / 2);
        cache.insert(key("s", 1, 16, 16), fragment(16, 32));
        cache.insert(key("s", 1, 17, 17), fragment(17, 32));
        // A proven state may displace older fragments: fragment 16 is LRU.
        assert!(cache.put_state("s", 1, 8, "p=8;excl=1/2", state, false));
        assert_eq!((cache.state_count(), cache.proven_count()), (1, 1));
        assert_eq!(cache.parked_bytes(), sbytes);
        assert!(cache.get_segment("s", 1, 16, 16, "p=8;excl=1/2").is_none(), "16 was LRU");
        assert!(cache.get_segment("s", 1, 17, 17, "p=8;excl=1/2").is_some());
        assert_eq!(count(&registry, "evictions"), 1);
        // Now the state is the LRU entry: the next fragment evicts it and
        // keeps the just-touched fragment 17.
        cache.insert(key("s", 1, 18, 18), fragment(18, 32));
        assert_eq!(cache.state_count(), 0, "the proven state was the oldest entry");
        assert_eq!(cache.len(), 2);
        assert_eq!(count(&registry, "evictions"), 2);
        assert!(cache.used_bytes() <= cache.budget_bytes());
    }

    #[test]
    fn parked_states_round_trip_with_exact_accounting() {
        let mut cache = counted(1 << 20).0;
        let (state, _) = captured_state(80, 8);
        let skey = StateKey {
            series: "s".into(),
            generation: 1,
            anchor: 8,
            knobs: "p=50;excl=1/2".into(),
        };
        let bytes = state_bytes(&skey, &state);
        cache.put_state("s", 1, 8, "p=50;excl=1/2", state, false);
        assert_eq!(cache.state_count(), 1);
        assert_eq!(cache.used_bytes(), bytes);

        let taken = cache.take_state("s", 1, 8, "p=50;excl=1/2").expect("parked above");
        assert_eq!(cache.used_bytes(), 0, "take transfers the bytes to the caller");
        assert!(cache.take_state("s", 1, 8, "p=50;excl=1/2").is_none());
        assert_eq!(taken.anchor(), 8);
        assert_eq!(taken.n(), 80);
    }

    #[test]
    fn extending_a_state_changes_its_bytes_and_accounting_follows() {
        let mut cache = counted(1 << 20).0;
        let (state, series) = captured_state(80, 8);
        let offset = {
            let ps = ProfiledSeries::from_values(&series[..80]).unwrap();
            ps.offset()
        };
        cache.put_state("s", 1, 8, "p=50;excl=1/2", state, false);
        let before = cache.used_bytes();

        let mut state = cache.take_state("s", 1, 8, "p=50;excl=1/2").unwrap();
        let grown = ProfiledSeries::with_offset(&series[..140], offset).unwrap();
        state.extend(&grown, &SharedRecorder::noop()).unwrap();
        cache.put_state("s", 1, 8, "p=50;excl=1/2", state, false);

        assert!(cache.used_bytes() > before, "an extended state must charge its grown size");
        let skey = StateKey {
            series: "s".into(),
            generation: 1,
            anchor: 8,
            knobs: "p=50;excl=1/2".into(),
        };
        let entry = cache.states.get(&skey).unwrap();
        assert_eq!(entry.bytes, state_bytes(&skey, &entry.state));
        assert_eq!(cache.used_bytes(), entry.bytes);
    }

    #[test]
    fn append_staleness_is_collected_lazily_but_states_survive() {
        let (mut cache, registry) = counted(1 << 20);
        fill_segment(&mut cache, 16, 18); // version 1 fragments
        cache.insert(key("s", 2, 16, 16), fragment(16, 32));
        let (state, _) = captured_state(80, 8);
        cache.put_state("s", 1, 8, "p=8;excl=1/2", state, false);

        let collected = cache.invalidate_stale("s", 1, 2);
        assert_eq!(collected, 3, "only the version-1 fragments are behind the watermark");
        assert_eq!(cache.len(), 1, "the current-version fragment survives");
        assert_eq!(cache.state_count(), 1, "states are what stale fragments extend from");
        assert_eq!(count(&registry, "invalidated"), 3);
        assert_eq!(cache.invalidate_stale("s", 1, 2), 0, "idempotent at the same watermark");

        // A replace purges states too: nothing survives a rewritten history.
        cache.invalidate_series("s");
        assert!(cache.is_empty());
        assert_eq!(cache.used_bytes(), 0);
    }

    #[test]
    fn oversized_and_zero_budget_states_are_rejected_cleanly() {
        let (state, _) = captured_state(80, 8);
        let mut cache = counted(0).0;
        cache.put_state("s", 1, 8, "p=50;excl=1/2", state.clone(), false);
        assert!(cache.is_empty(), "zero budget disables state parking");
        assert_eq!(cache.used_bytes(), 0);

        // A budget smaller than the state: parking is refused, and the
        // refusal also drops any stale previous state under the key rather
        // than leaving it to be served later.
        let skey = StateKey {
            series: "s".into(),
            generation: 1,
            anchor: 8,
            knobs: "p=50;excl=1/2".into(),
        };
        let mut cache = counted(state_bytes(&skey, &state) + 64).0;
        cache.put_state("s", 1, 8, "p=50;excl=1/2", state.clone(), false);
        assert_eq!(cache.state_count(), 1);
        let (bigger, _) = captured_state(200, 8);
        cache.put_state("s", 1, 8, "p=50;excl=1/2", bigger, false);
        assert!(cache.is_empty(), "oversized replacement drops the stale state too");
        assert_eq!(cache.used_bytes(), 0);
    }

    #[test]
    fn fragments_and_states_compete_under_one_lru_clock() {
        let (state, _) = captured_state(80, 8);
        let skey =
            StateKey { series: "s".into(), generation: 1, anchor: 8, knobs: "p=8;excl=1/2".into() };
        let sbytes = state_bytes(&skey, &state);
        let fbytes = entry_bytes(&key("s", 1, 16, 16), &fragment(16, 32));
        // Room for the state plus one fragment, not two.
        let (mut cache, registry) = counted(sbytes + fbytes + fbytes / 2);
        cache.put_state("s", 1, 8, "p=8;excl=1/2", state, false);
        cache.insert(key("s", 1, 16, 16), fragment(16, 32));
        assert_eq!(count(&registry, "evictions"), 0);
        // The state is the LRU; a second fragment evicts it, not fragment 16.
        cache.insert(key("s", 1, 16, 17), fragment(17, 32));
        assert_eq!(cache.state_count(), 0, "oldest entry goes first, whichever map holds it");
        assert_eq!(cache.len(), 2);
        assert_eq!(count(&registry, "evictions"), 1);
        assert!(cache.used_bytes() <= cache.budget_bytes());
    }

    #[test]
    fn invalidation_and_zero_budget() {
        let mut cache = counted(0).0;
        cache.insert(key("s", 1, 16, 16), fragment(16, 8));
        assert!(cache.is_empty(), "zero budget disables fragment reuse");
        let (mut cache, registry) = counted(1 << 20);
        fill_segment(&mut cache, 16, 18);
        cache.insert(key("t", 1, 16, 16), fragment(16, 8));
        cache.invalidate_series("s");
        assert_eq!(cache.len(), 1);
        assert_eq!(count(&registry, "invalidated"), 3);
        assert_eq!(
            cache.used_bytes(),
            entry_bytes(&key("t", 1, 16, 16), &fragment(16, 8)),
            "accounting survives invalidation"
        );
    }

    #[test]
    fn pinned_states_sit_outside_the_budget_and_are_never_evicted() {
        let (state, _) = captured_state(80, 8);
        let sbytes = state_bytes(&skey("excl=1/2"), &state);
        let fbytes = entry_bytes(&key("s", 1, 16, 16), &fragment(16, 32));
        // A budget of one fragment: far too small for the state.
        let (mut cache, registry) = counted(fbytes);
        assert!(cache.put_state("s", 1, 8, "excl=1/2", state.clone(), true), "a pin always parks");
        assert_eq!(cache.pinned(), (1, sbytes));
        assert_eq!((cache.state_count(), cache.parked_bytes(), cache.used_bytes()), (0, 0, 0));
        // Fragments churn through the budget around it.
        for l in 16..24 {
            cache.insert(key("s", 1, l, l), fragment(l, 32));
        }
        assert_eq!(cache.len(), 1);
        assert_eq!(count(&registry, "evictions"), 7, "only fragments were evicted");
        assert_eq!(cache.pinned().0, 1);
        assert_eq!(count(&registry, "state_refused"), 0);
        // Take and re-park: the accounting round-trips.
        let taken = cache.take_state("s", 1, 8, "excl=1/2").unwrap();
        assert_eq!(cache.pinned().0, 0);
        assert!(cache.put_state("s", 1, 8, "excl=1/2", taken, true));
        // A zero budget still pins.
        let mut off = counted(0).0;
        assert!(off.put_state("s", 1, 8, "excl=1/2", state, true));
        assert_eq!(off.pinned().0, 1);
        // Only a replace drops it.
        cache.invalidate_stale("s", 1, 9);
        assert_eq!(cache.pinned().0, 1);
        cache.invalidate_series("s");
        assert!(cache.is_empty());
        assert_eq!((cache.used_bytes(), cache.pinned().1), (0, 0));
    }

    #[test]
    fn a_later_generation_never_takes_an_earlier_ones_state_and_collects_it() {
        // A query that raced a replace parks its state under the old
        // generation after the replace purged the series.
        let (state, _) = captured_state(80, 8);
        let mut cache = counted(1 << 20).0;
        assert!(cache.put_state("s", 1, 8, "excl=1/2", state.clone(), true));
        assert!(cache.put_state("s", 1, 8, "p=8;excl=1/2", state.clone(), false));
        assert!(cache.take_state("s", 5, 8, "excl=1/2").is_none());
        assert!(cache.take_state("s", 5, 8, "p=8;excl=1/2").is_none());
        // The new generation's own states stay; the old ones are collected.
        assert!(cache.put_state("s", 5, 8, "excl=1/2", state, true));
        cache.invalidate_stale("s", 5, 6);
        assert_eq!((cache.pinned().0, cache.state_count(), cache.used_bytes()), (1, 0, 0));
        assert!(cache.take_state("s", 5, 8, "excl=1/2").is_some());
    }

    mod accounting_props {
        use super::*;
        use proptest::prelude::*;
        use std::sync::OnceLock;
        use valmod_core::ValmodConfig;

        /// Advance-ready states of different sizes (tiny `p` keeps them
        /// cheap); swapping them under one key models an in-place extension
        /// changing an entry's byte footprint. The first three are fresh
        /// captures (speculative), the last three extended ones (proven).
        fn states() -> &'static Vec<SegmentState> {
            static STATES: OnceLock<Vec<SegmentState>> = OnceLock::new();
            STATES.get_or_init(|| {
                let series = random_walk(160, 9);
                let capture = |n: usize| {
                    let ps = ProfiledSeries::from_values(&series[..n]).unwrap();
                    let mut cfg = ValmodConfig::new(8, 10);
                    cfg.p = 2;
                    let (_, state) =
                        Valmod::from_config(cfg).run_lengths_capturing(&ps, 8, 10).unwrap();
                    (state.expect("single-threaded runs capture"), ps.offset())
                };
                let fresh = [40usize, 70, 100].iter().map(|&n| capture(n).0);
                let extended = [(30usize, 40usize), (60, 70), (90, 100)].iter().map(|&(n, m)| {
                    let (mut state, offset) = capture(n);
                    let grown = ProfiledSeries::with_offset(&series[..m], offset).unwrap();
                    state.extend(&grown, &SharedRecorder::noop()).unwrap();
                    state
                });
                fresh.chain(extended).collect()
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// After any randomized sequence of fragment inserts, state
            /// park/take cycles over both tiers and pins (including size-changing
            /// replacements, the shape an in-place extension produces),
            /// lazy staleness GC, and full invalidation, the tracked byte
            /// total equals the sum recomputed from both live maps and
            /// never exceeds the budget (pinned states are charged nothing),
            /// no speculative or pinned park ever evicts a fragment, and
            /// nothing but a take, a replace or a re-park drops a pin.
            #[test]
            fn used_bytes_equals_recomputed_sum_across_both_maps(
                ops in prop::collection::vec(
                    (0usize..7, 0usize..2, 1u64..4, 0usize..2, 0usize..6),
                    1..100,
                ),
                budget in 1024usize..32768,
            ) {
                let series = ["a", "bb"];
                let anchors = [8usize, 16];
                let mut cache = counted(budget).0;
                for (op, s, version, a, size) in ops {
                    let name = series[s];
                    let anchor = anchors[a];
                    let pinned_before = cache.pinned().0;
                    match op {
                        0 | 1 => cache.insert(
                            key(name, version, anchor, anchor + size),
                            fragment(anchor + size, 16 * (size + 1)),
                        ),
                        2 => { cache.get_segment(name, version, anchor, anchor + 2, "p=8;excl=1/2"); }
                        3 => {
                            let state = states()[size].clone();
                            // Version 3 doubles as the pin flag.
                            let pinned = version == 3;
                            let speculative = !state.was_extended();
                            let before = cache.len();
                            let parked = cache.put_state(name, 1, anchor, "p=8;excl=1/2", state, pinned);
                            prop_assert!(!(speculative || pinned) || cache.len() == before);
                            prop_assert!(parked || !pinned, "a pinned state is never refused");
                        }
                        4 => { cache.take_state(name, 1, anchor, "p=8;excl=1/2"); }
                        5 => { cache.invalidate_stale(name, 1, version); }
                        _ => cache.invalidate_series(name),
                    }
                    if matches!(op, 0..=2 | 5) {
                        prop_assert_eq!(cache.pinned().0, pinned_before, "pins are never evicted");
                    }
                    let mut recomputed = 0usize;
                    for (k, e) in &cache.map {
                        prop_assert_eq!(e.bytes, entry_bytes(k, &e.fragment));
                        recomputed += e.bytes;
                    }
                    for (k, e) in &cache.states {
                        prop_assert_eq!(e.bytes, state_bytes(k, &e.state));
                        recomputed += e.bytes;
                    }
                    prop_assert_eq!(cache.used_bytes(), recomputed);
                    prop_assert!(cache.used_bytes() <= budget);
                }
            }
        }
    }
}
