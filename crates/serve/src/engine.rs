//! The embeddable query engine: store + cache + worker-pool scheduler.
//!
//! ## Sharding
//!
//! Engine state is **striped**: series names hash into
//! [`crate::store::stripe_of`] buckets, and each stripe owns its slice of
//! every shared structure — the store's map (see [`crate::store`]), a
//! result-cache LRU, a fragment-cache LRU, and a single-flight table —
//! with per-stripe byte budgets that [`split_budget`] carves out of the
//! configured totals. Requests against different series therefore never
//! contend on a common lock; an APPEND on series A cannot delay a MOTIFS
//! on series B, and `STATS` assembles its series inventory from lock-free
//! atomic mirrors. Lock order is store stripe map → per-series lock →
//! leaf cache/flight mutexes, never the other way.
//!
//! ## Scheduling model
//!
//! Ingestion (`load`/`append`) runs on the calling thread under the owning
//! series' write lock — it only validates, logs and stores samples (O(k)
//! per APPEND of k) and must be strictly ordered with that series' version
//! counter. Queries are **admitted** on
//! the calling thread (cache probe, so cache hits are O(1) and never
//! consume a queue slot) and **executed** on a fixed worker pool behind a
//! bounded queue:
//!
//! * queue full → [`ServeError::Busy`] immediately (load shedding, never a
//!   panic and never an unbounded backlog);
//! * per-request deadline → checked at dequeue (a request that waited too
//!   long is not computed at all) and again after compute;
//! * a query admitted before an append but dequeued after it is computed
//!   against — and cached under — the *newer* version: execution takes
//!   effect at dequeue time.
//!
//! Workers compute on an `Arc` snapshot of the batch view, so long queries
//! never hold the store lock while appends land.
//!
//! ## Query planning
//!
//! Admission additionally **coalesces** identical concurrent queries: the
//! first request under a cache key becomes the *leader* and submits one
//! job; every later identical request arriving while that job is in
//! flight attaches to it and receives the same payload when it lands
//! (`coalesced: true`, counted in `serve.query.coalesced`). Cold
//! computes themselves run through the [`crate::planner`], which
//! decomposes the length range into segments whose per-length fragments
//! are cached in a [`crate::fragment::FragmentCache`] and recomposed —
//! so overlapping ranges share work across requests, bit-identically.
//! Every MOTIFS and DISCORDS takes that one path; SETS runs VALMOD directly.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use valmod_core::{
    compute_var_length_motif_sets, top_variable_length_motifs, variable_length_discords, Valmod,
    ValmodConfig,
};
use valmod_mp::{ExclusionPolicy, ProfiledSeries};
use valmod_obs::{Counter, Gauge, MetricSnapshot, Recorder, Registry, SharedRecorder, Snapshot};

use crate::cache::{CacheCounters, CacheKey, ResultCache};
use crate::error::{ServeError, ServeResult};
use crate::fragment::{FragmentCache, FragmentCounters};
use crate::response::{
    BodyShape, DiscordHit, DiscordsBody, MotifHit, MotifsBody, SetEntry, SetsBody,
};
use crate::store::{SeriesStore, DEFAULT_STRIPES};
use crate::value::Value;

/// Splits a byte budget across `shards` stripes such that the parts sum
/// to exactly `total` (the first `total % shards` stripes get one extra
/// byte). Used for the per-stripe result/fragment cache budgets.
pub fn split_budget(total: usize, shards: usize) -> Vec<usize> {
    let shards = shards.max(1);
    let base = total / shards;
    let rem = total % shards;
    (0..shards).map(|i| base + usize::from(i < rem)).collect()
}

/// Sizing and behaviour knobs for a [`QueryEngine`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads executing queries (≥ 1).
    pub workers: usize,
    /// Bounded queue depth between admission and the workers (≥ 1).
    pub queue_depth: usize,
    /// Stripes the store/cache/flight state is sharded across (≥ 1).
    /// More stripes mean less lock contention between series that happen
    /// to hash together; 1 degenerates to the old single-lock layout.
    pub stripes: usize,
    /// Result-cache byte budget, split across stripes (0 disables caching).
    pub cache_bytes: usize,
    /// Planner fragment-cache byte budget (0 disables fragment reuse;
    /// the planner then recomputes every segment).
    pub fragment_cache_bytes: usize,
    /// `ValmodConfig::threads` used inside each query's kernels
    /// (1 = sequential, 0 = all cores).
    pub kernel_threads: usize,
    /// Deadline applied when a request does not carry its own.
    pub default_deadline: Duration,
    /// Directory for snapshots + WALs. `None` keeps the store in memory
    /// (a restart loses everything); `Some` makes every load/append
    /// durable and recovers the directory's contents on startup.
    pub data_dir: Option<PathBuf>,
    /// Per-series WAL size past which an append folds the log into a
    /// fresh snapshot. Ignored without `data_dir`.
    pub wal_compact_bytes: u64,
    /// Longest request line the TCP front end accepts (the server reads
    /// this from the engine it wraps).
    pub max_line_bytes: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 2,
            queue_depth: 32,
            stripes: DEFAULT_STRIPES,
            cache_bytes: 16 << 20,
            fragment_cache_bytes: 16 << 20,
            kernel_threads: 1,
            default_deadline: Duration::from_secs(30),
            data_dir: None,
            wal_compact_bytes: crate::persist::DEFAULT_WAL_COMPACT_BYTES,
            max_line_bytes: crate::server::DEFAULT_MAX_LINE_BYTES,
        }
    }
}

impl EngineConfig {
    /// A builder over the defaults, with validation at
    /// [`EngineConfigBuilder::build`] — the one construction path call
    /// sites should use.
    pub fn builder() -> EngineConfigBuilder {
        EngineConfigBuilder { cfg: EngineConfig::default() }
    }
}

/// Builds an [`EngineConfig`], validating the combination once at
/// [`EngineConfigBuilder::build`] instead of clamping silently at every
/// call site.
#[derive(Debug, Clone)]
pub struct EngineConfigBuilder {
    cfg: EngineConfig,
}

impl EngineConfigBuilder {
    /// Worker threads executing queries (≥ 1).
    pub fn workers(mut self, workers: usize) -> Self {
        self.cfg.workers = workers;
        self
    }

    /// Bounded queue depth between admission and the workers (≥ 1).
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.cfg.queue_depth = depth;
        self
    }

    /// Stripes the store/cache/flight state is sharded across (≥ 1).
    pub fn stripes(mut self, stripes: usize) -> Self {
        self.cfg.stripes = stripes;
        self
    }

    /// Result-cache byte budget (0 disables result caching).
    pub fn cache_bytes(mut self, bytes: usize) -> Self {
        self.cfg.cache_bytes = bytes;
        self
    }

    /// Planner fragment-cache byte budget (0 disables fragment reuse).
    pub fn fragment_cache_bytes(mut self, bytes: usize) -> Self {
        self.cfg.fragment_cache_bytes = bytes;
        self
    }

    /// Kernel threads per query (1 = sequential, 0 = all cores).
    pub fn kernel_threads(mut self, threads: usize) -> Self {
        self.cfg.kernel_threads = threads;
        self
    }

    /// Deadline applied when a request does not carry its own (> 0).
    pub fn default_deadline(mut self, deadline: Duration) -> Self {
        self.cfg.default_deadline = deadline;
        self
    }

    /// Directory for snapshots + WALs (durability on).
    pub fn data_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cfg.data_dir = Some(dir.into());
        self
    }

    /// Per-series WAL size that triggers snapshot compaction.
    pub fn wal_compact_bytes(mut self, bytes: u64) -> Self {
        self.cfg.wal_compact_bytes = bytes;
        self
    }

    /// Longest request line the TCP front end accepts (≥ 1024).
    pub fn max_line_bytes(mut self, bytes: usize) -> Self {
        self.cfg.max_line_bytes = bytes;
        self
    }

    /// Validates the combination and returns the config.
    pub fn build(self) -> ServeResult<EngineConfig> {
        let cfg = self.cfg;
        if cfg.workers == 0 {
            return Err(ServeError::InvalidParameter("engine requires workers >= 1".into()));
        }
        if cfg.queue_depth == 0 {
            return Err(ServeError::InvalidParameter("engine requires queue_depth >= 1".into()));
        }
        if cfg.stripes == 0 {
            return Err(ServeError::InvalidParameter("engine requires stripes >= 1".into()));
        }
        if cfg.default_deadline.is_zero() {
            return Err(ServeError::InvalidParameter(
                "engine requires a non-zero default_deadline".into(),
            ));
        }
        if cfg.max_line_bytes < 1024 {
            return Err(ServeError::InvalidParameter(
                "engine requires max_line_bytes >= 1024 (one request must fit)".into(),
            ));
        }
        Ok(cfg)
    }
}

/// What a query asks for (on top of the common length-range parameters).
#[derive(Debug, Clone)]
pub enum QueryKind {
    /// Top-k ranked variable-length motifs.
    Motifs {
        /// How many motifs to report.
        top: usize,
    },
    /// Variable-length motif sets (paper Algorithm 6).
    Sets {
        /// Top-K pairs tracked as set seeds.
        k: usize,
        /// Radius factor `D` (set radius = D · pair distance).
        radius: f64,
    },
    /// Top-k variable-length discords.
    Discords {
        /// How many discords to report.
        top: usize,
    },
}

/// One motif/discord/set query against a named series.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    /// Name of the stored series.
    pub series: String,
    /// What to compute.
    pub kind: QueryKind,
    /// Smallest subsequence length.
    pub l_min: usize,
    /// Largest subsequence length (inclusive).
    pub l_max: usize,
    /// Lower-bound entries retained per profile (paper `p`).
    pub p: usize,
    /// Trivial-match exclusion policy.
    pub policy: ExclusionPolicy,
    /// Per-request deadline (engine default when `None`).
    pub deadline: Option<Duration>,
}

impl QuerySpec {
    fn valmod_config(&self, kernel_threads: usize) -> ValmodConfig {
        let cfg = ValmodConfig::new(self.l_min, self.l_max)
            .with_p(self.p)
            .with_policy(self.policy)
            .with_threads(kernel_threads);
        match self.kind {
            QueryKind::Sets { k, .. } => cfg.with_pair_tracking(k),
            _ => cfg,
        }
    }

    /// The canonical cache-key fragment: kind-specific parameters plus the
    /// canonicalized [`ValmodConfig`] key (execution knobs excluded).
    pub fn query_key(&self) -> String {
        let cfg = self.valmod_config(1).cache_key();
        match self.kind {
            QueryKind::Motifs { top } => format!("motifs;top={top};{cfg}"),
            QueryKind::Sets { k, radius } => format!("sets;k={k};radius={radius};{cfg}"),
            QueryKind::Discords { top } => format!("discords;top={top};{cfg}"),
        }
    }
}

/// A delivered query result.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The result payload (what `"result"` carries on the wire).
    pub payload: Arc<Value>,
    /// Whether the payload came from the result cache.
    pub cached: bool,
    /// Whether this request attached to another request's in-flight
    /// compute instead of submitting its own job.
    pub coalesced: bool,
}

/// One in-flight computation under a cache key. The leader publishes its
/// payload (or a cloned error) here; followers block on the condvar with
/// their own deadlines.
#[derive(Default)]
struct Flight {
    done: Mutex<Option<ServeResult<Arc<Value>>>>,
    cv: Condvar,
}

impl Flight {
    fn publish(&self, result: ServeResult<Arc<Value>>) {
        *self.done.lock().expect("flight lock") = Some(result);
        self.cv.notify_all();
    }
}

/// Owns a leader's registered [`Flight`]: the leader calls
/// [`FlightGuard::complete`] with its result on the normal path, and the
/// `Drop` impl is the safety net — if the leader thread dies (panics,
/// unwinds early) while the flight is still open, the guard retires it
/// and publishes [`ServeError::Busy`], so coalesced followers fail fast
/// instead of waiting out their full deadlines on a flight nobody will
/// ever finish.
struct FlightGuard {
    shared: Arc<Shared>,
    stripe: usize,
    key: CacheKey,
    flight: Arc<Flight>,
    done: bool,
}

impl FlightGuard {
    /// Removes the flight from its stripe's table so later identical
    /// requests probe the cache or lead a fresh flight.
    fn retire(&self) {
        let shard = &self.shared.shards[self.stripe];
        let removed = shard.flights.lock().expect("flights lock").remove(&self.key).is_some();
        if removed {
            self.shared.inflight_flights.fetch_sub(1, Ordering::Relaxed);
        }
        let inflight = self.shared.inflight_flights.load(Ordering::Relaxed);
        self.shared.counters.inflight.set(inflight as f64);
    }

    /// Normal-path completion: retire the flight, then hand the leader's
    /// result to every attached follower (errors cloned per recipient).
    fn complete(mut self, result: &ServeResult<QueryOutcome>) {
        self.retire();
        self.flight.publish(match result {
            Ok(outcome) => Ok(Arc::clone(&outcome.payload)),
            Err(e) => Err(clone_error(e)),
        });
        self.done = true;
    }
}

impl Drop for FlightGuard {
    fn drop(&mut self) {
        if self.done {
            return;
        }
        // The leader died without publishing. Unblock the followers.
        self.retire();
        self.flight.publish(Err(ServeError::Busy));
    }
}

/// RAII span over one cold compute: maintains the `active_computes` level
/// and raises the `serve.compute.peak_active` high-water mark, the engine's
/// proof that different-stripe computes genuinely overlap in time.
struct ComputeSpan<'a>(&'a Shared);

impl<'a> ComputeSpan<'a> {
    fn enter(shared: &'a Shared) -> Self {
        let active = shared.active_computes.fetch_add(1, Ordering::AcqRel) + 1;
        shared.counters.peak_active.set_max(active as f64);
        ComputeSpan(shared)
    }
}

impl Drop for ComputeSpan<'_> {
    fn drop(&mut self) {
        self.0.active_computes.fetch_sub(1, Ordering::AcqRel);
    }
}

/// [`ServeError`] intentionally carries a live `io::Error` and is not
/// `Clone`; coalescing needs to hand one leader failure to many
/// followers, so this reconstructs an equivalent error per recipient.
fn clone_error(e: &ServeError) -> ServeError {
    match e {
        ServeError::Io(io) => ServeError::Io(std::io::Error::new(io.kind(), io.to_string())),
        ServeError::Parse { line, token } => {
            ServeError::Parse { line: *line, token: token.clone() }
        }
        ServeError::NonFinite { index } => ServeError::NonFinite { index: *index },
        ServeError::TooShort { len, required } => {
            ServeError::TooShort { len: *len, required: *required }
        }
        ServeError::InvalidParameter(msg) => ServeError::InvalidParameter(msg.clone()),
        ServeError::Busy => ServeError::Busy,
        ServeError::DeadlineExceeded => ServeError::DeadlineExceeded,
        ServeError::ShuttingDown => ServeError::ShuttingDown,
        ServeError::UnknownSeries(name) => ServeError::UnknownSeries(name.clone()),
        ServeError::SeriesExists(name) => ServeError::SeriesExists(name.clone()),
        ServeError::Protocol(msg) => ServeError::Protocol(msg.clone()),
        ServeError::Internal(msg) => ServeError::Internal(msg.clone()),
    }
}

enum Work {
    Query(QuerySpec),
    /// Diagnostics: occupy a worker for `ms` milliseconds. Used to probe
    /// queue/deadline behaviour of a deployment (and by the tests).
    Sleep(u64),
    /// A job that panics, to drive the worker's containment.
    #[cfg(test)]
    Panic,
}

struct Job {
    work: Work,
    deadline: Instant,
    submitted: Instant,
    reply: SyncSender<ServeResult<QueryOutcome>>,
}

/// Every serve event's one counter, bound once from the engine's registry
/// when the engine is built: counting on the request path is one relaxed
/// atomic add, never a registry lookup. STATS fills its `engine`, `cache`
/// and `planner` event keys from these cells, and the `obs` section shows
/// the same cells under their registry names.
struct Counters {
    queries: Counter,
    computed: Counter,
    coalesced: Counter,
    shed_busy: Counter,
    shed_deadline: Counter,
    /// High-water mark of concurrent cold computes: > 1 proves computes
    /// overlap.
    peak_active: Gauge,
    inflight: Gauge,
    cache: CacheCounters,
    fragments: FragmentCounters,
}

impl Counters {
    fn bind(registry: &Registry) -> Self {
        Counters {
            queries: registry.counter("serve.query.requests"),
            computed: registry.counter("serve.query.computed"),
            coalesced: registry.counter("serve.query.coalesced"),
            shed_busy: registry.counter("serve.queue.shed_busy"),
            shed_deadline: registry.counter("serve.queue.shed_deadline"),
            peak_active: registry.gauge("serve.compute.peak_active"),
            inflight: registry.gauge("serve.flights.inflight"),
            cache: CacheCounters::bind(registry),
            fragments: FragmentCounters::bind(registry),
        }
    }
}

/// One stripe's slice of the engine-level shared state. A series' shard
/// index always equals its store stripe index, so a request touches
/// exactly one shard end to end.
struct Shard {
    cache: Mutex<ResultCache>,
    fragments: Mutex<FragmentCache>,
    flights: Mutex<HashMap<CacheKey, Arc<Flight>>>,
}

struct Shared {
    cfg: EngineConfig,
    store: SeriesStore,
    shards: Box<[Shard]>,
    counters: Counters,
    /// Open single-flight entries across all stripes (STATS reads this
    /// instead of walking the per-stripe tables).
    inflight_flights: AtomicU64,
    /// Cold computes currently inside their [`ComputeSpan`].
    active_computes: AtomicU64,
    registry: Registry,
    recorder: SharedRecorder,
    shutting_down: AtomicBool,
}

impl Shared {
    fn shard_for(&self, series: &str) -> &Shard {
        &self.shards[self.store.stripe_index(series)]
    }
}

/// The resident query engine (embeddable; the TCP server is one front end).
pub struct QueryEngine {
    shared: Arc<Shared>,
    sender: Mutex<Option<SyncSender<Job>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl QueryEngine {
    /// Starts an engine with its worker pool. Infallible for in-memory
    /// configurations; panics if `data_dir` is set and opening/recovering
    /// it fails — use [`QueryEngine::open`] to handle that error.
    pub fn new(cfg: EngineConfig) -> Self {
        QueryEngine::open(cfg).expect("open data_dir")
    }

    /// Starts an engine with its worker pool, opening (and recovering)
    /// the configured `data_dir` when one is set.
    pub fn open(cfg: EngineConfig) -> ServeResult<Self> {
        let cfg = EngineConfig {
            workers: cfg.workers.max(1),
            queue_depth: cfg.queue_depth.max(1),
            stripes: cfg.stripes.max(1),
            ..cfg
        };
        let (tx, rx) = mpsc::sync_channel::<Job>(cfg.queue_depth);
        // The engine's metric registry: every query's kernels report into
        // it, so the STATS "obs" section sees the whole stack. The lb
        // diagnostic histograms need value-shaped (not latency-shaped)
        // bucket layouts, registered up front.
        let registry = Registry::new();
        valmod_core::instrument::register_probe_histograms(&registry);
        let recorder = SharedRecorder::from(registry.clone());
        let counters = Counters::bind(&registry);
        let store = match &cfg.data_dir {
            Some(dir) => {
                SeriesStore::open_with_stripes(dir, cfg.wal_compact_bytes, cfg.stripes, &recorder)?
            }
            None => SeriesStore::with_stripes(cfg.stripes),
        };
        // Per-stripe caches: the budgets sum to exactly the configured
        // totals, so operators reason about one number while stripes never
        // share a lock.
        let shards: Box<[Shard]> = split_budget(cfg.cache_bytes, cfg.stripes)
            .into_iter()
            .zip(split_budget(cfg.fragment_cache_bytes, cfg.stripes))
            .map(|(cache_budget, fragment_budget)| Shard {
                cache: Mutex::new(ResultCache::new(cache_budget, counters.cache.clone())),
                fragments: Mutex::new(FragmentCache::new(
                    fragment_budget,
                    counters.fragments.clone(),
                )),
                flights: Mutex::new(HashMap::new()),
            })
            .collect();
        let shared = Arc::new(Shared {
            cfg,
            store,
            shards,
            counters,
            inflight_flights: AtomicU64::new(0),
            active_computes: AtomicU64::new(0),
            registry,
            recorder,
            shutting_down: AtomicBool::new(false),
        });
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..shared.cfg.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("valmod-serve-worker-{i}"))
                    .spawn(move || worker_loop(shared, rx))
                    .expect("spawn worker thread")
            })
            .collect();
        Ok(QueryEngine { shared, sender: Mutex::new(Some(tx)), workers: Mutex::new(workers) })
    }

    /// Loads (or with `replace` overwrites) a named series whose
    /// `hot_lengths` get their single-length planner states pinned under
    /// `policy`. Returns `(version, len)`.
    pub fn load(
        &self,
        name: &str,
        values: Vec<f64>,
        hot_lengths: &[usize],
        policy: ExclusionPolicy,
        replace: bool,
    ) -> ServeResult<(u64, usize)> {
        self.reject_if_shutting_down()?;
        let out = self.shared.store.load(
            name,
            values,
            hot_lengths,
            policy,
            replace,
            &self.shared.recorder,
        )?;
        // The monotonic version counter already keeps old cache entries
        // from aliasing the new generation; purging the name just frees
        // budget that dead entries would otherwise pin until eviction.
        // Only the series' own stripe is touched.
        let shard = self.shared.shard_for(name);
        shard.cache.lock().expect("cache lock").invalidate_series(name);
        shard.fragments.lock().expect("fragment cache lock").invalidate_series(name);
        Ok(out)
    }

    /// Appends samples to a named series: WAL-logs the batch first (when
    /// durable), bumps its version, and purges the series' *result*-cache
    /// entries. Fragments are deliberately **not**
    /// purged: the version bump already makes them unservable (their key
    /// carries the old watermark), and the planner revives their parked
    /// segment states by extending over the appended tail on the next
    /// query — `O(k·n)` instead of a cold `O(n²)` recompute — collecting
    /// the stale fragments lazily. The whole operation is a critical
    /// section of **this series only** — queries and appends on other
    /// series proceed in parallel. Returns `(version, len)`.
    pub fn append(&self, name: &str, samples: &[f64]) -> ServeResult<(u64, usize)> {
        self.reject_if_shutting_down()?;
        let out = self.shared.store.append(name, samples, &self.shared.recorder)?;
        self.shared.shard_for(name).cache.lock().expect("cache lock").invalidate_series(name);
        Ok(out)
    }

    /// Snapshots every series to disk, resetting the WALs (the `SAVE`
    /// command). Each series is flushed under its own write lock — a
    /// sequence of per-series critical sections, never a global pause.
    /// Returns the number of snapshots written — 0 when the engine has no
    /// `data_dir` (durability is simply off, not an error).
    pub fn persist(&self) -> ServeResult<usize> {
        self.shared.store.persist_all(&self.shared.recorder)
    }

    /// Runs a query: O(1) on a cache hit; attached to an identical
    /// in-flight computation when one exists (single-flight coalescing);
    /// otherwise scheduled on the worker pool behind the bounded queue.
    pub fn query(&self, spec: QuerySpec) -> ServeResult<QueryOutcome> {
        let c = &self.shared.counters;
        c.queries.incr();
        self.reject_if_shutting_down()?;
        // Admission-time cache probe against the current version, read
        // from the slot's lock-free mirror — admission never waits behind
        // a mutation, not even on the same series. Unknown names also fail
        // fast here instead of occupying a queue slot.
        let version = self.shared.store.get(&spec.series)?.version();
        let stripe = self.shared.store.stripe_index(&spec.series);
        let shard = &self.shared.shards[stripe];
        let key = CacheKey { series: spec.series.clone(), version, query: spec.query_key() };
        if let Some(payload) = shard.cache.lock().expect("cache lock").get(&key) {
            c.cache.hit.incr();
            return Ok(QueryOutcome { payload, cached: true, coalesced: false });
        }
        c.cache.miss.incr();
        let deadline = Instant::now() + spec.deadline.unwrap_or(self.shared.cfg.default_deadline);
        // Single-flight, per stripe: exactly one request per cache key
        // becomes the leader and submits a job; identical requests arriving
        // while it is in flight wait for its payload instead of queueing.
        let guard = {
            let mut flights = shard.flights.lock().expect("flights lock");
            if let Some(flight) = flights.get(&key) {
                let flight = Arc::clone(flight);
                drop(flights);
                return self.wait_on_flight(&flight, deadline);
            }
            let flight = Arc::new(Flight::default());
            flights.insert(key.clone(), Arc::clone(&flight));
            drop(flights);
            let inflight = self.shared.inflight_flights.fetch_add(1, Ordering::Relaxed);
            c.inflight.set((inflight + 1) as f64);
            FlightGuard { shared: Arc::clone(&self.shared), stripe, key, flight, done: false }
        };
        let result = self.submit(Work::Query(spec), deadline);
        // Retire the flight before publishing (both inside `complete`):
        // requests arriving from here on probe the result cache (the
        // worker filled it before replying) or lead a fresh flight; the
        // followers already attached get the leader's payload — or its
        // failure, cloned per recipient, so they fail fast instead of
        // timing out. If this thread dies before reaching here, the
        // guard's Drop publishes `Busy` so no follower hangs.
        guard.complete(&result);
        result
    }

    /// Blocks a follower on `flight` until the leader publishes or the
    /// follower's own deadline passes.
    fn wait_on_flight(&self, flight: &Flight, deadline: Instant) -> ServeResult<QueryOutcome> {
        let mut done = flight.done.lock().expect("flight lock");
        loop {
            match &*done {
                Some(Ok(payload)) => {
                    self.shared.counters.coalesced.incr();
                    return Ok(QueryOutcome {
                        payload: Arc::clone(payload),
                        cached: false,
                        coalesced: true,
                    });
                }
                Some(Err(e)) => return Err(clone_error(e)),
                None => {}
            }
            let now = Instant::now();
            if now >= deadline {
                self.shared.counters.shed_deadline.incr();
                return Err(ServeError::DeadlineExceeded);
            }
            let (guard, _) = flight.cv.wait_timeout(done, deadline - now).expect("flight lock");
            done = guard;
        }
    }

    /// Diagnostics: occupies one worker for `ms` milliseconds through the
    /// same bounded queue and deadline machinery as real queries.
    pub fn sleep(&self, ms: u64, deadline: Option<Duration>) -> ServeResult<QueryOutcome> {
        self.reject_if_shutting_down()?;
        let deadline = Instant::now() + deadline.unwrap_or(self.shared.cfg.default_deadline);
        self.submit(Work::Sleep(ms), deadline)
    }

    fn submit(&self, work: Work, deadline: Instant) -> ServeResult<QueryOutcome> {
        let (reply_tx, reply_rx) = mpsc::sync_channel(1);
        let job = Job { work, deadline, submitted: Instant::now(), reply: reply_tx };
        {
            let sender = self.sender.lock().expect("sender lock");
            let Some(tx) = sender.as_ref() else {
                return Err(ServeError::ShuttingDown);
            };
            match tx.try_send(job) {
                Ok(()) => {}
                Err(TrySendError::Full(_)) => {
                    self.shared.counters.shed_busy.incr();
                    return Err(ServeError::Busy);
                }
                Err(TrySendError::Disconnected(_)) => return Err(ServeError::ShuttingDown),
            }
        }
        reply_rx.recv().map_err(|_| ServeError::ShuttingDown)?
    }

    /// The configuration this engine runs with (after startup clamping).
    /// The TCP front end reads its line limit from here.
    pub fn config(&self) -> &EngineConfig {
        &self.shared.cfg
    }

    /// The engine's metric registry. Front ends may record their own
    /// metrics into it (the TCP server adds `serve.net.bytes_in/out`);
    /// [`QueryEngine::stats`] snapshots it into the `"obs"` section.
    pub fn registry(&self) -> &Registry {
        &self.shared.registry
    }

    /// A `STATS` snapshot: engine counters, cache accounting (aggregated
    /// and per stripe), per-series inventory, and the scheduler
    /// configuration. Every event key reads its one registry counter, so it
    /// equals the `obs` entry of the same event; the sections compute only
    /// state. Assembled without stopping the world: counters and levels are
    /// atomics, the series section reads each slot's lock-free mirrors
    /// (never a series lock — a slow append cannot stall STATS), and the
    /// per-stripe cache mutexes are taken one stripe at a time.
    pub fn stats(&self) -> Value {
        let store = &self.shared.store;
        let series: Vec<Value> = store
            .names()
            .into_iter()
            .map(|name| {
                let slot = store.get(&name).expect("name from listing");
                Value::obj(vec![
                    ("name", Value::str(name)),
                    ("len", slot.len().into()),
                    ("version", slot.version().into()),
                    (
                        "hot_lengths",
                        Value::Arr(slot.hot_lengths().iter().copied().map(Value::from).collect()),
                    ),
                ])
            })
            .collect();
        let persist_v = Value::obj(vec![
            ("enabled", Value::Bool(store.is_durable())),
            (
                "data_dir",
                store.data_dir().map_or(Value::Null, |d| Value::str(d.display().to_string())),
            ),
            ("recovery_skipped", store.recovery_skipped().len().into()),
        ]);
        // Aggregate the striped caches' state; expose it per stripe too so
        // a hot stripe is visible, not averaged away.
        let c = &self.shared.counters;
        let (mut cache_rows, mut per_stripe) = (Vec::new(), Vec::new());
        for (i, shard) in self.shared.shards.iter().enumerate() {
            let cache = shard.cache.lock().expect("cache lock");
            let row = vec![
                ("entries", cache.len() as u64),
                ("used_bytes", cache.used_bytes() as u64),
                ("budget_bytes", cache.budget_bytes() as u64),
            ];
            let stripe = row.iter().map(|&(k, v)| (k, v.into()));
            per_stripe
                .push(Value::obj(std::iter::once(("stripe", i.into())).chain(stripe).collect()));
            cache_rows.push(row);
        }
        let mut cache_fields = sum_fields(cache_rows);
        cache_fields.extend([
            ("hits", c.cache.hit.get().into()),
            ("misses", c.cache.miss.get().into()),
            ("evictions", c.cache.evictions.get().into()),
            ("invalidated", c.cache.invalidated.get().into()),
        ]);
        cache_fields.push(("per_stripe", Value::Arr(per_stripe)));
        let planner_rows = self.shared.shards.iter().map(|shard| {
            let fragments = shard.fragments.lock().expect("fragment cache lock");
            let (pinned, pinned_bytes) = fragments.pinned();
            vec![
                ("fragment_entries", fragments.len() as u64),
                ("fragment_used_bytes", fragments.used_bytes() as u64),
                ("fragment_budget_bytes", fragments.budget_bytes() as u64),
                ("parked_states", fragments.state_count() as u64),
                ("parked_bytes", fragments.parked_bytes() as u64),
                ("parked_proven", fragments.proven_count() as u64),
                ("pinned_states", pinned as u64),
                ("pinned_bytes", pinned_bytes as u64),
            ]
        });
        let f = &c.fragments;
        let mut planner_fields = sum_fields(planner_rows);
        planner_fields.extend([
            ("fragment_hits", f.hit.get().into()),
            ("fragment_misses", f.miss.get().into()),
            ("fragment_evictions", f.evictions.get().into()),
            ("fragment_invalidated", f.invalidated.get().into()),
            ("fragments_extended", f.extended.get().into()),
            ("states_refused", f.state_refused.get().into()),
            ("inflight", self.shared.inflight_flights.load(Ordering::Relaxed).into()),
        ]);
        Value::obj(vec![
            (
                "engine",
                Value::obj(vec![
                    ("queries", c.queries.get().into()),
                    ("computed", c.computed.get().into()),
                    ("coalesced", c.coalesced.get().into()),
                    ("busy_rejections", c.shed_busy.get().into()),
                    ("deadline_misses", c.shed_deadline.get().into()),
                    ("active_computes", self.shared.active_computes.load(Ordering::Relaxed).into()),
                    ("peak_computes", (c.peak_active.get() as u64).into()),
                    ("stripes", self.shared.cfg.stripes.into()),
                    ("workers", self.shared.cfg.workers.into()),
                    ("queue_depth", self.shared.cfg.queue_depth.into()),
                    ("kernel_threads", self.shared.cfg.kernel_threads.into()),
                ]),
            ),
            ("cache", Value::obj(cache_fields)),
            ("planner", Value::obj(planner_fields)),
            ("persist", persist_v),
            ("series", Value::Arr(series)),
            ("obs", snapshot_value(&self.shared.registry.snapshot())),
        ])
    }

    /// Begins shutdown: new work is rejected with
    /// [`ServeError::ShuttingDown`]; already-queued jobs still complete.
    /// Durable engines flush a final round of snapshots — best-effort,
    /// because every acknowledged append is already fsynced in its WAL, so
    /// a failure here costs restart time (replay), never data.
    pub fn shutdown(&self) {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        // Dropping the sender disconnects the queue once drained, which
        // ends every worker loop. Appends are rejected from this point, so
        // the flush below observes the final store state.
        self.sender.lock().expect("sender lock").take();
        let _ = self.persist();
    }

    /// Waits for the worker pool to drain and exit ([`QueryEngine::shutdown`]
    /// must have been called, otherwise this blocks forever).
    pub fn join(&self) {
        let handles: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.workers.lock().expect("workers lock"));
        for h in handles {
            let _ = h.join();
        }
    }

    /// Whether shutdown has begun.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutting_down.load(Ordering::SeqCst)
    }

    fn reject_if_shutting_down(&self) -> ServeResult<()> {
        if self.is_shutting_down() {
            return Err(ServeError::ShuttingDown);
        }
        Ok(())
    }
}

fn worker_loop(shared: Arc<Shared>, rx: Arc<Mutex<mpsc::Receiver<Job>>>) {
    loop {
        let job = {
            let rx = rx.lock().expect("receiver lock");
            match rx.recv() {
                Ok(job) => job,
                Err(_) => return, // queue disconnected: shutdown
            }
        };
        shared.recorder.observe("serve.queue.wait_us", job.submitted.elapsed().as_secs_f64() * 1e6);
        if Instant::now() > job.deadline {
            shared.counters.shed_deadline.incr();
            let _ = job.reply.send(Err(ServeError::DeadlineExceeded));
            continue;
        }
        // A panicking job costs its caller an `internal` error, not the
        // pool a worker: the thread answers the next job as before.
        let run = std::panic::AssertUnwindSafe(|| run_job(&shared, &job.work));
        let result = std::panic::catch_unwind(run).unwrap_or_else(|payload| {
            shared.recorder.add("serve.worker.panics", 1);
            let what = (payload.downcast_ref::<&str>().copied())
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("a job panicked");
            Err(ServeError::Internal(what.to_string()))
        });
        let result = match result {
            Ok(_) if Instant::now() > job.deadline => {
                // Too late to be useful to this caller, but the computed
                // result stays cached for the next one.
                shared.counters.shed_deadline.incr();
                Err(ServeError::DeadlineExceeded)
            }
            other => other,
        };
        let _ = job.reply.send(result);
    }
}

fn run_job(shared: &Shared, work: &Work) -> ServeResult<QueryOutcome> {
    match work {
        Work::Sleep(ms) => {
            std::thread::sleep(Duration::from_millis(*ms));
            Ok(QueryOutcome {
                payload: Arc::new(Value::obj(vec![("slept_ms", (*ms).into())])),
                cached: false,
                coalesced: false,
            })
        }
        Work::Query(spec) => execute_query(shared, spec),
        #[cfg(test)]
        Work::Panic => panic!("injected job panic"),
    }
}

/// Sums per-stripe `(field, count)` rows field by field; every row lists
/// the same fields in the same order.
fn sum_fields(
    rows: impl IntoIterator<Item = Vec<(&'static str, u64)>>,
) -> Vec<(&'static str, Value)> {
    let mut total: Vec<(&'static str, u64)> = Vec::new();
    for row in rows {
        if total.is_empty() {
            total = row;
        } else {
            total.iter_mut().zip(row).for_each(|(acc, (_, v))| acc.1 += v);
        }
    }
    total.into_iter().map(|(k, v)| (k, v.into())).collect()
}

fn execute_query(shared: &Shared, spec: &QuerySpec) -> ServeResult<QueryOutcome> {
    // Snapshot (batch view, version) atomically, under the owning series'
    // lock only — computes on other series and the whole admission path
    // stay unaffected. Hot lengths pin only under the series' own policy.
    let slot = shared.store.get(&spec.series)?;
    let (ps, version, pinned) = {
        let mut entry = slot.write();
        let own_policy = entry.policy().reduced() == spec.policy.reduced();
        let pinned = if own_policy { slot.hot_lengths() } else { &[] };
        let (ps, version) = entry.profiled()?;
        (ps, version, pinned)
    };
    // The version may have advanced past the admission-time probe; another
    // worker may also have filled the entry meanwhile. Re-probe.
    let shard = shared.shard_for(&spec.series);
    let key = CacheKey { series: spec.series.clone(), version, query: spec.query_key() };
    if let Some(payload) = shard.cache.lock().expect("cache lock").get(&key) {
        shared.counters.cache.hit.incr();
        return Ok(QueryOutcome { payload, cached: true, coalesced: false });
    }
    let started = Instant::now();
    let body = {
        let _active = ComputeSpan::enter(shared);
        let _span = valmod_obs::span!(&shared.recorder, "serve.compute_us");
        compute_payload(shared, shard, spec, &ps, slot.generation(), version, pinned)?
    };
    let payload = Arc::new(Value::obj(vec![
        ("series", Value::str(&spec.series)),
        ("version", version.into()),
        ("compute_ms", (started.elapsed().as_secs_f64() * 1e3).into()),
        ("body", body),
    ]));
    shared.counters.computed.incr();
    shard.cache.lock().expect("cache lock").insert(key, Arc::clone(&payload));
    Ok(QueryOutcome { payload, cached: false, coalesced: false })
}

fn compute_payload(
    shared: &Shared,
    shard: &Shard,
    spec: &QuerySpec,
    ps: &ProfiledSeries,
    generation: u64,
    version: u64,
    pinned: &[usize],
) -> ServeResult<Value> {
    let cfg = spec.valmod_config(shared.cfg.kernel_threads);
    let runner = Valmod::from_config(cfg.clone()).recorder(shared.recorder.clone());
    // VALMP-shaped queries run through the planner: the length range is
    // decomposed into grid segments whose per-length fragments are cached
    // in the series' own stripe and recomposed, so overlapping ranges
    // share work across requests.
    let planned = || {
        crate::planner::execute_plan(
            ps,
            &spec.series,
            generation,
            version,
            pinned,
            &runner,
            &shard.fragments,
            &shared.counters.fragments,
            &shared.recorder,
            (spec.l_min, spec.l_max),
        )
    };
    match spec.kind {
        QueryKind::Motifs { top } => {
            let (out, _) = planned()?;
            let motifs = top_variable_length_motifs(&out.valmp, top, cfg.policy);
            Ok(MotifsBody { motifs: motifs.iter().map(MotifHit::from_pair).collect() }.to_value())
        }
        QueryKind::Sets { k, radius } => {
            if k == 0 {
                return Err(ServeError::InvalidParameter(
                    "sets require k >= 1 tracked pairs".into(),
                ));
            }
            // Sets bypass the planner: the best-K pair tracker must see
            // every candidate at offer time, which composition over cached
            // fragments cannot replay.
            let out = runner.run_on(ps)?;
            let tracker = out.best_pairs.ok_or_else(|| {
                ServeError::InvalidParameter("pair tracking produced no candidates".into())
            })?;
            let (sets, set_stats) = compute_var_length_motif_sets(ps, &tracker, radius, cfg.policy);
            Ok(SetsBody {
                sets: sets
                    .iter()
                    .map(|s| {
                        let mut offsets: Vec<usize> = s.members.iter().map(|m| m.offset).collect();
                        offsets.sort_unstable();
                        SetEntry {
                            l: s.l,
                            pair: s.pair,
                            pair_dist: s.pair_dist,
                            radius: s.radius,
                            frequency: s.frequency(),
                            offsets,
                        }
                    })
                    .collect(),
                served_from_snapshots: set_stats.served_from_snapshots,
                recomputed_profiles: set_stats.recomputed_profiles,
            }
            .to_value())
        }
        QueryKind::Discords { top } => {
            let (out, _) = planned()?;
            let discords = variable_length_discords(&out.valmp, top, cfg.policy);
            Ok(DiscordsBody {
                discords: discords
                    .iter()
                    .map(|d| DiscordHit {
                        offset: d.offset,
                        l: d.l,
                        // The VALMP ⊥ sentinel must never cross the wire as
                        // a number; null is the wire form of "no match".
                        nn: (d.nn != usize::MAX).then_some(d.nn),
                        score: d.score,
                    })
                    .collect(),
            }
            .to_value())
        }
    }
}

/// Renders a registry snapshot as a wire value: counters and gauges map to
/// plain numbers; histograms to `{count, sum, mean, p50, p99}` summaries
/// (bucket layouts stay server-side — quantiles are what clients plot).
fn snapshot_value(snapshot: &Snapshot) -> Value {
    let fields: Vec<(String, Value)> = snapshot
        .entries()
        .iter()
        .map(|(key, metric)| {
            let value = match metric {
                MetricSnapshot::Counter(v) => Value::from(*v),
                MetricSnapshot::Gauge(v) => Value::from(*v),
                MetricSnapshot::Histogram(h) => {
                    let quantile = |q: f64| {
                        let v = h.quantile(q);
                        if v.is_finite() {
                            Value::from(v)
                        } else {
                            Value::Null
                        }
                    };
                    Value::obj(vec![
                        ("count", h.count.into()),
                        ("sum", h.sum.into()),
                        ("mean", if h.count > 0 { h.mean().into() } else { Value::Null }),
                        ("p50", quantile(0.5)),
                        ("p99", quantile(0.99)),
                    ])
                }
            };
            (key.clone(), value)
        })
        .collect();
    Value::Obj(fields)
}

impl std::fmt::Debug for QueryEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryEngine").field("cfg", &self.shared.cfg).finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use valmod_data::generators::{plant_motif, random_walk};

    fn engine(workers: usize, queue: usize, cache: usize) -> QueryEngine {
        QueryEngine::new(
            EngineConfig::builder()
                .workers(workers)
                .queue_depth(queue)
                .cache_bytes(cache)
                .build()
                .unwrap(),
        )
    }

    fn motif_spec(series: &str, l_min: usize, l_max: usize) -> QuerySpec {
        QuerySpec {
            series: series.into(),
            kind: QueryKind::Motifs { top: 3 },
            l_min,
            l_max,
            p: 8,
            policy: ExclusionPolicy::HALF,
            deadline: None,
        }
    }

    #[test]
    fn cold_then_cached_queries_agree() {
        let eng = engine(2, 8, 1 << 20);
        let (values, _) = plant_motif(1200, 40, 2, 0.001, 11);
        eng.load("s", values, &[], ExclusionPolicy::HALF, false).unwrap();

        let cold = eng.query(motif_spec("s", 32, 40)).unwrap();
        assert!(!cold.cached);
        let warm = eng.query(motif_spec("s", 32, 40)).unwrap();
        assert!(warm.cached);
        assert_eq!(cold.payload.as_ref(), warm.payload.as_ref());
        // A thread-count change must still hit (canonicalization).
        // (kernel_threads is engine-wide here, so instead vary the policy
        // representation: 2/4 ≡ 1/2.)
        let mut spec = motif_spec("s", 32, 40);
        spec.policy = ExclusionPolicy::new(2, 4);
        assert!(eng.query(spec).unwrap().cached);
        eng.shutdown();
        eng.join();
    }

    #[test]
    fn append_bumps_version_and_invalidates() {
        let eng = engine(1, 8, 1 << 20);
        let series = random_walk(500, 13);
        eng.load("s", series[..400].to_vec(), &[], ExclusionPolicy::HALF, false).unwrap();
        let first = eng.query(motif_spec("s", 24, 28)).unwrap();
        assert!(!first.cached);
        let (version, len) = eng.append("s", &series[400..]).unwrap();
        assert_eq!((version, len), (2, 500));
        let after = eng.query(motif_spec("s", 24, 28)).unwrap();
        assert!(!after.cached, "append must invalidate the cached result");
        assert_eq!(after.payload.get("version").unwrap().as_usize(), Some(2));
        eng.shutdown();
        eng.join();
    }

    fn planner_stat(eng: &QueryEngine, key: &str) -> usize {
        eng.stats().get("planner").and_then(|p| p.get(key)).and_then(Value::as_usize).unwrap()
    }

    fn obs_counter(eng: &QueryEngine, key: &str) -> usize {
        eng.stats().get("obs").and_then(|o| o.get(key)).and_then(Value::as_usize).unwrap_or(0)
    }

    /// Segments computed by a cold run: not reused, not revived.
    fn cold_segments(eng: &QueryEngine) -> usize {
        obs_counter(eng, "serve.planner.segments_computed")
            - obs_counter(eng, "serve.planner.segments_revived")
    }

    fn body_of(out: &QueryOutcome) -> String {
        out.payload.get("body").map(Value::encode).expect("payload has a body")
    }

    #[test]
    fn fixed_length_bodies_do_not_depend_on_hot_threads_or_revival() {
        // LOAD with and without a hot length, at one and two kernel
        // threads, then APPEND: every fixed-length MOTIFS and DISCORDS body
        // equals a cold engine's that replays the same history, and the
        // hot engine answers each post-append query by extending its
        // pinned single-length state.
        let (values, _) = plant_motif(900, 32, 2, 0.001, 17);
        let (base, tail) = values.split_at(700);
        let specs = || {
            let mut discords = motif_spec("s", 32, 32);
            discords.kind = QueryKind::Discords { top: 3 };
            [motif_spec("s", 32, 32), discords]
        };
        let answers = |hot: &[usize], threads: usize, appends: usize| -> Vec<String> {
            let eng = QueryEngine::new(
                EngineConfig::builder().workers(1).kernel_threads(threads).build().unwrap(),
            );
            eng.load("s", base.to_vec(), hot, ExclusionPolicy::HALF, false).unwrap();
            let mut bodies: Vec<String> =
                specs().into_iter().map(|q| body_of(&eng.query(q).unwrap())).collect();
            for k in 0..appends {
                eng.append("s", &tail[k * 50..(k + 1) * 50]).unwrap();
                bodies.extend(specs().into_iter().map(|q| body_of(&eng.query(q).unwrap())));
            }
            if !hot.is_empty() {
                assert_eq!(planner_stat(&eng, "pinned_states"), 1);
                assert_eq!(planner_stat(&eng, "fragments_extended"), appends);
                assert_eq!(obs_counter(&eng, "serve.planner.segments_revived"), appends);
                assert_eq!(cold_segments(&eng), 1);
            }
            eng.shutdown();
            eng.join();
            bodies
        };
        let reference = answers(&[], 1, 4);
        assert!(!reference[0].contains("source"), "no path marker on the wire");
        for (hot, threads) in [(&[32usize][..], 1usize), (&[32], 2), (&[], 2)] {
            assert_eq!(answers(hot, threads, 4), reference, "hot {hot:?}, threads {threads}");
        }
        // Each post-append body equals a cold engine that replays the same
        // LOAD + APPEND history at that point.
        for k in 1..=4 {
            let eng = engine(1, 8, 0);
            eng.load("s", base.to_vec(), &[], ExclusionPolicy::HALF, false).unwrap();
            for j in 0..k {
                eng.append("s", &tail[j * 50..(j + 1) * 50]).unwrap();
            }
            let replay: Vec<String> =
                specs().into_iter().map(|q| body_of(&eng.query(q).unwrap())).collect();
            assert_eq!(replay, reference[2 * k..2 * k + 2], "after append {k}");
            eng.shutdown();
            eng.join();
        }
    }

    #[test]
    fn a_fixed_and_a_range_query_at_one_anchor_keep_separate_states() {
        // 32..32 takes the pinned single-length state and 32..40 its own
        // p-keyed full state; after each APPEND both revive by extension.
        let eng = QueryEngine::new(
            EngineConfig::builder().workers(1).fragment_cache_bytes(64 << 20).build().unwrap(),
        );
        let (values, _) = plant_motif(1_000, 32, 2, 0.001, 19);
        eng.load("s", values[..800].to_vec(), &[32], ExclusionPolicy::HALF, false).unwrap();
        eng.query(motif_spec("s", 32, 32)).unwrap();
        eng.query(motif_spec("s", 32, 40)).unwrap();
        assert_eq!(
            (planner_stat(&eng, "pinned_states"), planner_stat(&eng, "parked_states")),
            (1, 1)
        );
        for round in 1..=3 {
            eng.append("s", &values[800 + (round - 1) * 60..800 + round * 60]).unwrap();
            eng.query(motif_spec("s", 32, 32)).unwrap();
            eng.query(motif_spec("s", 32, 40)).unwrap();
            assert_eq!(planner_stat(&eng, "fragments_extended"), 2 * round, "round {round}");
        }
        assert_eq!(obs_counter(&eng, "serve.planner.segments_revived"), 6);
        assert_eq!(cold_segments(&eng), 2);
        // A policy other than the series' own does not pin.
        let mut quarter = motif_spec("s", 32, 32);
        quarter.policy = ExclusionPolicy::QUARTER;
        eng.query(quarter).unwrap();
        assert_eq!(
            (planner_stat(&eng, "pinned_states"), planner_stat(&eng, "parked_states")),
            (1, 2)
        );
        // A replace drops the pin with everything else.
        eng.load("s", random_walk(300, 5), &[], ExclusionPolicy::HALF, true).unwrap();
        assert_eq!(planner_stat(&eng, "pinned_states"), 0);
        assert_eq!(planner_stat(&eng, "pinned_bytes"), 0);
        eng.shutdown();
        eng.join();
    }

    #[test]
    fn a_state_re_parked_across_an_equal_length_replace_never_serves_the_new_series() {
        // The race: a query takes the pinned state, a LOAD replaces the
        // series with one of the same length, and the query parks the old
        // state again afterwards. The next fixed-length query must answer
        // from the new samples, not replay the old profile.
        let eng = engine(1, 8, 1 << 20);
        let (old, new) = (random_walk(400, 3), random_walk(400, 4));
        eng.load("s", old, &[24], ExclusionPolicy::HALF, false).unwrap();
        eng.query(motif_spec("s", 24, 24)).unwrap();
        let generation = eng.shared.store.get("s").unwrap().generation();
        let fragments = &eng.shared.shard_for("s").fragments;
        let taken = fragments.lock().unwrap().take_state("s", generation, 24, "excl=1/2");
        let taken = taken.expect("the hot length's state is pinned");
        eng.load("s", new.clone(), &[24], ExclusionPolicy::HALF, true).unwrap();
        assert!(fragments.lock().unwrap().put_state("s", generation, 24, "excl=1/2", taken, true));

        let mut discords = motif_spec("s", 24, 24);
        discords.kind = QueryKind::Discords { top: 3 };
        let specs = [motif_spec("s", 24, 24), discords];
        let bodies: Vec<String> =
            specs.iter().map(|q| body_of(&eng.query(q.clone()).unwrap())).collect();
        let cold = engine(1, 8, 0);
        cold.load("s", new, &[], ExclusionPolicy::HALF, false).unwrap();
        let expected: Vec<String> =
            specs.iter().map(|q| body_of(&cold.query(q.clone()).unwrap())).collect();
        assert_eq!(bodies, expected);
        assert_eq!(obs_counter(&eng, "serve.planner.segments_revived"), 0, "never revived");
        assert_eq!(planner_stat(&eng, "pinned_states"), 1, "the stale pin was collected");
        for e in [eng, cold] {
            e.shutdown();
            e.join();
        }
    }

    #[test]
    fn an_oversized_p_answers_like_p_equal_to_n_and_the_engine_goes_on() {
        // Regression: a MOTIFS whose `p` sized every heap's reservation
        // aborted the whole server on allocation failure. What `p ≥ rows`
        // still costs is `listDP` itself, every pair of rows: fine here,
        // not on a long series.
        let eng = engine(1, 8, 0);
        let values = random_walk(400, 47);
        eng.load("s", values, &[], ExclusionPolicy::HALF, false).unwrap();
        let with_p = |p: usize| {
            let mut spec = motif_spec("s", 24, 28);
            spec.p = p;
            body_of(&eng.query(spec).unwrap())
        };
        assert_eq!(with_p(u32::MAX as usize), with_p(400));
        assert!(eng.query(motif_spec("s", 16, 20)).is_ok(), "the engine keeps answering");
        eng.shutdown();
        eng.join();
    }

    #[test]
    fn full_queue_returns_busy_not_panic() {
        let eng = Arc::new(engine(1, 1, 0));
        // Occupy the single worker...
        let bg = {
            let eng = Arc::clone(&eng);
            std::thread::spawn(move || eng.sleep(400, None).map(|_| ()))
        };
        std::thread::sleep(Duration::from_millis(100)); // worker has dequeued
                                                        // ...fill the single queue slot...
        let queued = {
            let eng = Arc::clone(&eng);
            std::thread::spawn(move || eng.sleep(1, None).map(|_| ()))
        };
        std::thread::sleep(Duration::from_millis(100)); // slot occupied
                                                        // ...and the next request is shed.
        let err = eng.sleep(1, None).unwrap_err();
        assert!(matches!(err, ServeError::Busy), "got {err:?}");
        bg.join().unwrap().unwrap();
        queued.join().unwrap().unwrap();
        let stats = eng.stats();
        let busy = stats.get("engine").unwrap().get("busy_rejections").unwrap().as_usize().unwrap();
        assert!(busy >= 1);
        eng.shutdown();
        eng.join();
    }

    #[test]
    fn deadline_is_enforced_for_queued_work() {
        let eng = Arc::new(engine(1, 2, 0));
        let bg = {
            let eng = Arc::clone(&eng);
            std::thread::spawn(move || eng.sleep(300, None).map(|_| ()))
        };
        std::thread::sleep(Duration::from_millis(100));
        // Queued behind a 300 ms sleeper with a 50 ms deadline: dequeued
        // after the deadline, so it must not run at all.
        let err = eng.sleep(1, Some(Duration::from_millis(50))).unwrap_err();
        assert!(matches!(err, ServeError::DeadlineExceeded), "got {err:?}");
        bg.join().unwrap().unwrap();
        eng.shutdown();
        eng.join();
    }

    #[test]
    fn stats_expose_the_metric_registry() {
        let eng = engine(1, 8, 1 << 20);
        let (values, _) = plant_motif(900, 32, 2, 0.001, 23);
        eng.load("s", values, &[], ExclusionPolicy::HALF, false).unwrap();
        let cold = eng.query(motif_spec("s", 24, 32)).unwrap();
        assert!(!cold.cached);
        let warm = eng.query(motif_spec("s", 24, 32)).unwrap();
        assert!(warm.cached);
        let stats = eng.stats();
        let obs = stats.get("obs").expect("stats carries an obs section");
        let counter = |key: &str| obs.get(key).and_then(Value::as_usize).unwrap_or(0);
        assert_eq!(counter("serve.cache.hit"), 1);
        assert_eq!(counter("serve.cache.miss"), 1);
        // The cold query ran the full VALMOD stack under the recorder.
        assert!(counter("core.lb.valid_rows") > 0);
        assert!(counter("mp.stomp.rows") > 0);
        let wait = obs.get("serve.queue.wait_us").unwrap();
        assert_eq!(wait.get("count").and_then(Value::as_usize), Some(1));
        let compute = obs.get("serve.compute_us").unwrap();
        assert!(compute.get("sum").unwrap().as_f64().unwrap() > 0.0);
        eng.shutdown();
        eng.join();
    }

    #[test]
    fn every_stats_event_key_is_the_obs_counter_of_its_event() {
        // Overlapping ranges, one repeated: a result-cache hit, three
        // computes, and segments that are partly cached yet recomputed
        // whole. Each STATS event key must read its event's one counter.
        let eng = QueryEngine::new(EngineConfig::default());
        eng.load("s", random_walk(1200, 3), &[], ExclusionPolicy::HALF, false).unwrap();
        let ranges = [(16, 40), (16, 40), (16, 30), (16, 48)];
        for (l_min, l_max) in ranges {
            eng.query(motif_spec("s", l_min, l_max)).unwrap();
        }
        let stats = eng.stats();
        let key = |path: &str| {
            let (section, key) = path.split_once('.').unwrap();
            stats.get(section).and_then(|s| s.get(key)).and_then(Value::as_u64).unwrap()
        };
        let obs = |name: &str| {
            stats.get("obs").and_then(|o| o.get(name)).and_then(Value::as_f64).unwrap_or(0.0) as u64
        };
        for (stat, counter) in [
            ("engine.queries", "serve.query.requests"),
            ("engine.computed", "serve.query.computed"),
            ("engine.coalesced", "serve.query.coalesced"),
            ("engine.busy_rejections", "serve.queue.shed_busy"),
            ("engine.deadline_misses", "serve.queue.shed_deadline"),
            ("engine.peak_computes", "serve.compute.peak_active"),
            ("cache.hits", "serve.cache.hit"),
            ("cache.misses", "serve.cache.miss"),
            ("cache.evictions", "serve.cache.evictions"),
            ("cache.invalidated", "serve.cache.invalidated"),
            ("planner.fragment_hits", "serve.fragment.hit"),
            ("planner.fragment_misses", "serve.fragment.miss"),
            ("planner.fragment_evictions", "serve.fragment.evictions"),
            ("planner.fragment_invalidated", "serve.fragment.invalidated"),
            ("planner.fragments_extended", "serve.fragment.extended"),
            ("planner.states_refused", "serve.fragment.state_refused"),
        ] {
            assert_eq!(key(stat), obs(counter), "{stat} vs {counter}");
        }
        assert_eq!((key("engine.queries"), key("engine.computed")), (4, 3));
        // Misses are admission misses: one per computed query.
        assert_eq!((key("cache.hits"), key("cache.misses")), (1, 3));
        // Fragment misses are the fragments the plans computed: replaying
        // the three computed plans over a cache of the same stripe share
        // computes exactly as many.
        let stripes = eng.shared.cfg.stripes;
        let budget = split_budget(eng.shared.cfg.fragment_cache_bytes, stripes)
            [eng.shared.store.stripe_index("s")];
        let counters = FragmentCounters::bind(&Registry::new());
        let fragments = Mutex::new(FragmentCache::new(budget, counters.clone()));
        let ps = ProfiledSeries::from_values(&random_walk(1200, 3)).unwrap();
        let runner = Valmod::from_config(motif_spec("s", 16, 16).valmod_config(1));
        let noop = SharedRecorder::noop();
        let computed: usize = [(16, 40), (16, 30), (16, 48)]
            .into_iter()
            .map(|lengths| {
                let run = crate::planner::execute_plan(
                    &ps,
                    "s",
                    1,
                    1,
                    &[],
                    &runner,
                    &fragments,
                    &counters,
                    &noop,
                    lengths,
                );
                run.unwrap().1.fragments_computed
            })
            .sum();
        assert_eq!(key("planner.fragment_misses"), computed as u64);
        assert_eq!(counters.miss.get(), computed as u64);
        eng.shutdown();
        eng.join();
    }

    #[test]
    fn bottom_slots_never_leak_the_sentinel_onto_the_wire() {
        // A 51-sample series at l = 32 has 20 offsets; HALF exclusion
        // (radius 16) leaves the middle offsets with no admissible
        // neighbour, so their VALMP slots stay at the ⊥ sentinel
        // (usize::MAX index, length 0).
        let values = random_walk(51, 29);
        let out = Valmod::from_config(ValmodConfig::new(32, 32).with_p(4))
            .run(&valmod_data::series::Series::new(values.clone()).unwrap())
            .unwrap();
        assert!(
            out.valmp.norm_distances.iter().any(|d| !d.is_finite()),
            "the series must actually produce ⊥ slots for this regression to bite"
        );

        let eng = engine(1, 8, 1 << 20);
        eng.load("s", values, &[], ExclusionPolicy::HALF, false).unwrap();
        let mut spec = motif_spec("s", 32, 32);
        spec.kind = QueryKind::Discords { top: 8 };
        let reply = eng.query(spec).unwrap();
        let encoded = reply.payload.encode();
        assert!(
            !encoded.contains("18446744073709551615"),
            "⊥ must never cross the wire as usize::MAX: {encoded}"
        );
        // The body still parses back through the typed decoder.
        let body = reply.payload.get("body").expect("reply carries a body");
        DiscordsBody::from_value(body).expect("discords body round-trips");
        eng.shutdown();
        eng.join();
    }

    #[test]
    fn unknown_series_fails_fast() {
        let eng = engine(1, 2, 1024);
        let err = eng.query(motif_spec("ghost", 16, 20)).unwrap_err();
        assert!(matches!(err, ServeError::UnknownSeries(_)));
        eng.shutdown();
        eng.join();
    }

    #[test]
    fn late_insert_from_replaced_generation_cannot_serve_stale() {
        // Regression for the stale-cache race. Interleaving: a query is
        // admitted and snapshots (values, version) under the store lock;
        // a LOAD-with-replace lands and purges the series' cache entries;
        // the worker then finishes against the OLD snapshot and inserts
        // its result *after* the purge. When replace reset the version to
        // 1, that late entry aliased the new generation's first version
        // and was served stale. The monotonic counter makes the alias
        // structurally impossible.
        let noop = SharedRecorder::noop();
        let store = SeriesStore::new();
        let mut cache = ResultCache::new(1 << 20, CacheCounters::bind(&Registry::new()));
        store.load("a", random_walk(200, 5), &[], ExclusionPolicy::HALF, false, &noop).unwrap();
        let admitted_version = store.get("a").unwrap().version();
        // Replace + purge land mid-compute.
        store.load("a", random_walk(200, 6), &[], ExclusionPolicy::HALF, true, &noop).unwrap();
        cache.invalidate_series("a");
        // The worker's late insert, keyed by the old generation's version.
        let stale = CacheKey { series: "a".into(), version: admitted_version, query: "q".into() };
        cache.insert(stale, Arc::new(Value::str("stale result")));
        // A fresh query probes with the new generation's current version.
        let fresh = CacheKey {
            series: "a".into(),
            version: store.get("a").unwrap().version(),
            query: "q".into(),
        };
        assert!(
            cache.get(&fresh).is_none(),
            "a replaced generation's cache entry must never alias the new generation"
        );
    }

    #[test]
    fn durable_engine_recovers_after_hard_drop() {
        let dir =
            std::env::temp_dir().join(format!("valmod_engine_recover_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = EngineConfig::builder().workers(1).data_dir(dir.clone()).build().unwrap();
        let (values, _) = plant_motif(900, 32, 2, 0.001, 29);
        let cold = {
            let eng = QueryEngine::new(cfg.clone());
            eng.load("s", values[..800].to_vec(), &[], ExclusionPolicy::HALF, false).unwrap();
            eng.append("s", &values[800..]).unwrap();
            let cold = eng.query(motif_spec("s", 24, 32)).unwrap();
            assert!(!cold.cached);
            cold
            // Dropped without shutdown(): no flush — recovery must come
            // from the load-time snapshot plus the WAL-logged append.
        };
        let eng = QueryEngine::new(cfg);
        let stats = eng.stats();
        let persist = stats.get("persist").unwrap();
        assert_eq!(persist.get("enabled").unwrap().as_bool(), Some(true));
        assert_eq!(persist.get("recovery_skipped").unwrap().as_usize(), Some(0));
        let s = &stats.get("series").unwrap().as_arr().unwrap()[0];
        assert_eq!(s.get("len").unwrap().as_usize(), Some(900));
        assert_eq!(s.get("version").unwrap().as_usize(), Some(2));
        // Both sides cold-compute from bit-identical samples, so the
        // result bodies are byte-identical.
        let warm = eng.query(motif_spec("s", 24, 32)).unwrap();
        assert!(!warm.cached, "restart starts with an empty cache");
        assert_eq!(warm.payload.get("body"), cold.payload.get("body"));
        assert_eq!(warm.payload.get("version"), cold.payload.get("version"));
        eng.shutdown();
        eng.join();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_builder_validates_at_build_time() {
        let err = EngineConfig::builder().workers(0).build().unwrap_err();
        assert!(matches!(err, ServeError::InvalidParameter(_)), "got {err:?}");
        assert!(EngineConfig::builder().queue_depth(0).build().is_err());
        assert!(EngineConfig::builder().default_deadline(Duration::ZERO).build().is_err());
        assert!(EngineConfig::builder().max_line_bytes(16).build().is_err());
        let cfg = EngineConfig::builder()
            .workers(3)
            .queue_depth(7)
            .cache_bytes(1 << 20)
            .fragment_cache_bytes(2 << 20)
            .kernel_threads(2)
            .default_deadline(Duration::from_secs(5))
            .wal_compact_bytes(1 << 16)
            .max_line_bytes(1 << 20)
            .build()
            .unwrap();
        assert_eq!((cfg.workers, cfg.queue_depth), (3, 7));
        assert_eq!(cfg.fragment_cache_bytes, 2 << 20);
        assert_eq!(cfg.max_line_bytes, 1 << 20);
        assert!(cfg.data_dir.is_none());
    }

    #[test]
    fn identical_concurrent_queries_coalesce_into_one_compute() {
        let eng = Arc::new(engine(2, 8, 1 << 20));
        let (values, _) = plant_motif(1_600, 32, 2, 0.001, 31);
        eng.load("s", values, &[], ExclusionPolicy::HALF, false).unwrap();

        // Leader: admitted first, registers the flight before submitting.
        let leader = {
            let eng = Arc::clone(&eng);
            std::thread::spawn(move || eng.query(motif_spec("s", 16, 40)))
        };
        // Wait until the flight is registered (admission-time, so this is
        // long before the compute finishes), then attach followers.
        loop {
            let stats = eng.stats();
            let inflight =
                stats.get("planner").unwrap().get("inflight").unwrap().as_usize().unwrap();
            if inflight == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let followers: Vec<_> = (0..3)
            .map(|_| {
                let eng = Arc::clone(&eng);
                std::thread::spawn(move || eng.query(motif_spec("s", 16, 40)))
            })
            .collect();
        let lead = leader.join().unwrap().unwrap();
        assert!(!lead.cached && !lead.coalesced);
        for f in followers {
            let out = f.join().unwrap().unwrap();
            assert!(out.coalesced, "follower must attach to the in-flight compute");
            assert!(!out.cached);
            assert_eq!(out.payload.as_ref(), lead.payload.as_ref(), "same payload, byte for byte");
        }
        let stats = eng.stats();
        let engine_v = stats.get("engine").unwrap();
        assert_eq!(engine_v.get("computed").unwrap().as_usize(), Some(1), "exactly one compute");
        assert_eq!(engine_v.get("coalesced").unwrap().as_usize(), Some(3));
        let obs = stats.get("obs").unwrap();
        assert_eq!(obs.get("serve.query.coalesced").unwrap().as_usize(), Some(3));
        assert_eq!(stats.get("planner").unwrap().get("inflight").unwrap().as_usize(), Some(0));
        eng.shutdown();
        eng.join();
    }

    #[test]
    fn overlapping_ranges_reuse_fragments_and_appends_extend_them() {
        // Result cache off: every query reaches the planner; only the
        // fragment cache can save work.
        let eng = QueryEngine::new(
            EngineConfig::builder().workers(1).queue_depth(8).cache_bytes(0).build().unwrap(),
        );
        let (values, _) = plant_motif(700, 24, 2, 0.001, 37);
        eng.load("s", values, &[], ExclusionPolicy::HALF, false).unwrap();
        eng.query(motif_spec("s", 16, 40)).unwrap();
        let planner = |stats: &Value, key: &str| {
            stats.get("planner").unwrap().get(key).unwrap().as_usize().unwrap()
        };
        let stats = eng.stats();
        let cold_entries = planner(&stats, "fragment_entries");
        assert!(cold_entries > 0);
        assert_eq!(planner(&stats, "fragment_hits"), 0);
        assert!(planner(&stats, "parked_states") > 0, "cold segments park their states");
        // A different query kind over the same range reuses the fragments
        // (the knobs key excludes ranking parameters).
        let mut spec = motif_spec("s", 16, 40);
        spec.kind = QueryKind::Discords { top: 2 };
        eng.query(spec).unwrap();
        let stats = eng.stats();
        assert!(planner(&stats, "fragment_hits") > 0, "discords reuse the motifs' fragments");
        // An append does NOT purge: the stale fragments linger (their
        // version watermark makes them unservable) until the next query
        // lazily collects them and revives the parked states by extension.
        eng.append("s", &[0.5, 0.25]).unwrap();
        let stats = eng.stats();
        assert_eq!(planner(&stats, "fragment_entries"), cold_entries, "append must not purge");
        assert_eq!(planner(&stats, "fragments_extended"), 0);
        eng.query(motif_spec("s", 16, 40)).unwrap();
        let stats = eng.stats();
        assert!(planner(&stats, "fragment_invalidated") > 0, "stale fragments lazily collected");
        assert!(planner(&stats, "fragments_extended") > 0, "states were extended, not recomputed");
        assert_eq!(planner(&stats, "fragment_entries"), cold_entries, "fresh-version fragments");
        // A replace rewrites history: everything is purged, states included.
        eng.load("s", random_walk(300, 5), &[], ExclusionPolicy::HALF, true).unwrap();
        let stats = eng.stats();
        assert_eq!(planner(&stats, "fragment_entries"), 0);
        assert_eq!(planner(&stats, "parked_states"), 0);
        eng.shutdown();
        eng.join();
    }

    #[test]
    fn recorded_queries_after_an_append_still_prune() {
        // The engine always records, and the Eq. 2 skip rule must not care:
        // the post-append query's advances compute fewer distances than
        // they walk entries.
        let eng = engine(1, 8, 1 << 20);
        let series = valmod_data::datasets::ecg_like(1100, 7);
        let values = series.values();
        eng.load("s", values[..1000].to_vec(), &[], ExclusionPolicy::HALF, false).unwrap();
        let mut spec = motif_spec("s", 64, 80);
        spec.p = 50;
        eng.query(spec.clone()).unwrap();
        let work = |eng: &QueryEngine| {
            let stats = eng.stats();
            let obs = stats.get("obs").unwrap();
            let counter = |key: &str| obs.get(key).and_then(Value::as_usize).unwrap_or(0);
            (counter("core.submp.entries"), counter("core.submp.distances"))
        };
        let (entries_before, distances_before) = work(&eng);
        eng.append("s", &values[1000..1016]).unwrap();
        assert!(!eng.query(spec).unwrap().cached);
        let (entries, distances) = work(&eng);
        let (entries, distances) = (entries - entries_before, distances - distances_before);
        assert!(entries > 0, "the post-append query advanced no entry");
        assert!(distances < entries, "computed {distances} distances for {entries} entries");
        eng.shutdown();
        eng.join();
    }

    #[test]
    fn a_panicking_job_costs_its_caller_an_error_not_the_pool_a_worker() {
        let eng = engine(2, 8, 1 << 20);
        eng.load("s", random_walk(300, 43), &[], ExclusionPolicy::HALF, false).unwrap();
        // One panic per worker: without containment the pool would be empty.
        for _ in 0..2 {
            let deadline = Instant::now() + Duration::from_secs(30);
            let err = eng.submit(Work::Panic, deadline).unwrap_err();
            assert!(matches!(&err, ServeError::Internal(m) if m.contains("injected")), "{err:?}");
        }
        let workers = eng.workers.lock().unwrap();
        assert_eq!(workers.len(), 2);
        assert!(workers.iter().all(|w| !w.is_finished()), "a worker thread died");
        drop(workers);
        assert!(eng.query(motif_spec("s", 16, 20)).is_ok());
        let stats = eng.stats();
        let obs = stats.get("obs").unwrap();
        assert_eq!(obs.get("serve.worker.panics").and_then(Value::as_usize), Some(2));
        eng.shutdown();
        eng.join();
    }

    #[test]
    fn split_budget_sums_exactly_and_spreads_the_remainder() {
        assert_eq!(split_budget(0, 8).iter().sum::<usize>(), 0);
        assert_eq!(split_budget(10, 3), vec![4, 3, 3]);
        assert_eq!(split_budget(16 << 20, 8).iter().sum::<usize>(), 16 << 20);
        assert_eq!(split_budget(7, 16).iter().sum::<usize>(), 7);
        assert_eq!(split_budget(5, 1), vec![5]);
        // Degenerate stripe count is clamped, never a division by zero.
        assert_eq!(split_budget(5, 0), vec![5]);
    }

    #[test]
    fn leader_death_completes_followers_with_busy_not_a_hang() {
        // Regression: if the leader thread dies while owning a Flight,
        // attached followers used to wait out their full deadlines. The
        // FlightGuard's Drop must retire the flight and publish Busy.
        let eng = Arc::new(engine(1, 8, 1 << 20));
        eng.load("s", random_walk(300, 41), &[], ExclusionPolicy::HALF, false).unwrap();
        let spec = motif_spec("s", 16, 20);
        let key = CacheKey { series: "s".into(), version: 1, query: spec.query_key() };
        let stripe = eng.shared.store.stripe_index("s");
        let flight = Arc::new(Flight::default());
        eng.shared.shards[stripe].flights.lock().unwrap().insert(key.clone(), Arc::clone(&flight));
        eng.shared.inflight_flights.fetch_add(1, Ordering::Relaxed);
        let guard =
            FlightGuard { shared: Arc::clone(&eng.shared), stripe, key, flight, done: false };
        // Follower attaches while the doomed leader still owns the flight.
        let follower = {
            let eng = Arc::clone(&eng);
            let spec = spec.clone();
            std::thread::spawn(move || {
                let started = Instant::now();
                (eng.query(spec), started.elapsed())
            })
        };
        std::thread::sleep(Duration::from_millis(100)); // follower is waiting
        let leader = std::thread::spawn(move || {
            // Silence the default panic hook for this intentional death so
            // the test log stays clean; restore it right after. The guard
            // moves into the dying closure, so the unwind drops it — the
            // exact path a worker panic takes.
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(|_| {}));
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                let _owns = guard;
                panic!("leader dies mid-compute");
            }))
            .is_err();
            std::panic::set_hook(prev);
            assert!(unwound);
        });
        leader.join().unwrap();
        let (result, waited) = follower.join().unwrap();
        assert!(matches!(result, Err(ServeError::Busy)), "got {result:?}");
        assert!(
            waited < Duration::from_secs(20),
            "follower must fail fast, not burn its deadline: waited {waited:?}"
        );
        assert_eq!(eng.shared.inflight_flights.load(Ordering::Relaxed), 0);
        // The engine still works afterwards.
        assert!(eng.query(motif_spec("s", 16, 20)).is_ok());
        eng.shutdown();
        eng.join();
    }

    #[test]
    fn different_stripe_queries_compute_in_parallel() {
        // Two series in provably different stripes, two workers: their
        // cold computes must overlap in time, witnessed by the peak of the
        // active-compute counter (and the obs gauge it mirrors).
        let eng = Arc::new(engine(2, 8, 1 << 20));
        let names: Vec<String> = {
            let a = "alpha".to_string();
            let b = (0..)
                .map(|i| format!("beta{i}"))
                .find(|n| {
                    crate::store::stripe_of(n, eng.shared.cfg.stripes)
                        != crate::store::stripe_of("alpha", eng.shared.cfg.stripes)
                })
                .unwrap();
            vec![a, b]
        };
        let (values, _) = plant_motif(1_500, 32, 2, 0.001, 43);
        for name in &names {
            eng.load(name, values.clone(), &[], ExclusionPolicy::HALF, false).unwrap();
        }
        let threads: Vec<_> = names
            .iter()
            .map(|name| {
                let eng = Arc::clone(&eng);
                let name = name.clone();
                std::thread::spawn(move || eng.query(motif_spec(&name, 16, 40)).map(|_| ()))
            })
            .collect();
        for t in threads {
            t.join().unwrap().unwrap();
        }
        let stats = eng.stats();
        let engine_v = stats.get("engine").unwrap();
        assert_eq!(engine_v.get("computed").unwrap().as_usize(), Some(2));
        assert_eq!(
            engine_v.get("peak_computes").unwrap().as_usize(),
            Some(2),
            "different-stripe computes must overlap"
        );
        assert_eq!(engine_v.get("active_computes").unwrap().as_usize(), Some(0));
        let obs = stats.get("obs").unwrap();
        assert_eq!(obs.get("serve.compute.peak_active").unwrap().as_f64(), Some(2.0));
        eng.shutdown();
        eng.join();
    }

    #[test]
    fn held_series_lock_blocks_neither_other_series_nor_stats() {
        // The deterministic form of APPEND/MOTIFS isolation: hold series
        // A's write lock (what a slow append amounts to) and prove that a
        // LOAD, an APPEND and a MOTIFS on series B and a STATS snapshot all
        // still complete. The old single-RwLock store deadlocked here by
        // construction.
        let eng = Arc::new(engine(2, 8, 1 << 20));
        eng.load("a", random_walk(400, 3), &[], ExclusionPolicy::HALF, false).unwrap();
        let slot_a = eng.shared.store.get("a").unwrap();
        let held = slot_a.write();
        let (done_tx, done_rx) = mpsc::sync_channel(1);
        {
            let eng = Arc::clone(&eng);
            std::thread::spawn(move || {
                let run = || -> ServeResult<(u64, u64)> {
                    let (v1, _) =
                        eng.load("b", random_walk(400, 5), &[], ExclusionPolicy::HALF, false)?;
                    let (v2, _) = eng.append("b", &random_walk(40, 6))?;
                    eng.query(motif_spec("b", 16, 24))?;
                    let stats = eng.stats();
                    assert_eq!(
                        stats.get("series").and_then(Value::as_arr).map(<[_]>::len),
                        Some(2)
                    );
                    Ok((v1, v2))
                };
                let _ = done_tx.send(run());
            });
        }
        let outcome = done_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("LOAD, APPEND, MOTIFS and STATS on B must not block behind A's lock");
        assert_eq!(outcome.unwrap(), (1, 2));
        drop(held);
        // A itself was only ever waiting, never broken.
        eng.append("a", &[0.5]).unwrap();
        assert!(eng.query(motif_spec("a", 32, 32)).is_ok());
        eng.shutdown();
        eng.join();
    }

    #[test]
    fn shutdown_rejects_new_work_and_joins() {
        let eng = engine(2, 4, 1024);
        eng.load("s", random_walk(200, 19), &[], ExclusionPolicy::HALF, false).unwrap();
        eng.shutdown();
        assert!(matches!(eng.query(motif_spec("s", 16, 20)), Err(ServeError::ShuttingDown)));
        assert!(matches!(eng.append("s", &[1.0]), Err(ServeError::ShuttingDown)));
        eng.join(); // must not hang
    }
}
