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
//! series' write lock — it is O(n·hot lengths) and must be strictly
//! ordered with that series' version counter. Queries are **admitted** on
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
use valmod_mp::motif::top_motifs;
use valmod_mp::{ExclusionPolicy, MatrixProfile, ProfiledSeries};
use valmod_obs::{MetricSnapshot, Recorder, Registry, SharedRecorder, Snapshot};

use crate::cache::{CacheKey, ResultCache};
use crate::error::{ServeError, ServeResult};
use crate::fragment::FragmentCache;
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
            self.shared.counters.inflight_flights.fetch_sub(1, Ordering::Relaxed);
        }
        self.shared
            .registry
            .gauge("serve.flights.inflight")
            .set(self.shared.counters.inflight_flights.load(Ordering::Relaxed) as f64);
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

/// RAII span over one cold compute: maintains the `active_computes`
/// counter and CAS-maxes `peak_computes`, the engine's proof that
/// different-stripe computes genuinely overlap in time.
struct ComputeSpan<'a>(&'a Shared);

impl<'a> ComputeSpan<'a> {
    fn enter(shared: &'a Shared) -> Self {
        let c = &shared.counters;
        let active = c.active_computes.fetch_add(1, Ordering::AcqRel) + 1;
        let mut peak = c.peak_computes.load(Ordering::Relaxed);
        while active > peak {
            match c.peak_computes.compare_exchange_weak(
                peak,
                active,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => peak = seen,
            }
        }
        shared.registry.gauge("serve.compute.peak_active").set_max(active as f64);
        ComputeSpan(shared)
    }
}

impl Drop for ComputeSpan<'_> {
    fn drop(&mut self) {
        self.0.counters.active_computes.fetch_sub(1, Ordering::AcqRel);
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

#[derive(Debug, Default)]
struct EngineCounters {
    queries: AtomicU64,
    computed: AtomicU64,
    coalesced: AtomicU64,
    served_hot: AtomicU64,
    busy_rejections: AtomicU64,
    deadline_misses: AtomicU64,
    /// Open single-flight entries across all stripes (STATS reads this
    /// instead of walking the per-stripe tables).
    inflight_flights: AtomicU64,
    /// Cold computes currently inside their [`ComputeSpan`].
    active_computes: AtomicU64,
    /// High-water mark of `active_computes` — > 1 proves computes overlap.
    peak_computes: AtomicU64,
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
    counters: EngineCounters,
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
                cache: Mutex::new(ResultCache::new(cache_budget)),
                fragments: Mutex::new(FragmentCache::new(fragment_budget)),
                flights: Mutex::new(HashMap::new()),
            })
            .collect();
        let shared = Arc::new(Shared {
            cfg,
            store,
            shards,
            counters: EngineCounters::default(),
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

    /// Loads (or with `replace` overwrites) a named series, seeding hot
    /// streaming profiles at `hot_lengths`. Returns `(version, len)`.
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
    /// durable), bumps its version, extends hot profiles, and purges the
    /// series' *result*-cache entries. Fragments are deliberately **not**
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
        self.shared.counters.queries.fetch_add(1, Ordering::Relaxed);
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
            self.shared.recorder.add("serve.cache.hit", 1);
            return Ok(QueryOutcome { payload, cached: true, coalesced: false });
        }
        self.shared.recorder.add("serve.cache.miss", 1);
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
            let inflight = self.shared.counters.inflight_flights.fetch_add(1, Ordering::Relaxed);
            self.shared.registry.gauge("serve.flights.inflight").set((inflight + 1) as f64);
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
                    self.shared.counters.coalesced.fetch_add(1, Ordering::Relaxed);
                    self.shared.recorder.add("serve.query.coalesced", 1);
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
                self.shared.counters.deadline_misses.fetch_add(1, Ordering::Relaxed);
                self.shared.recorder.add("serve.queue.shed_deadline", 1);
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
                    self.shared.counters.busy_rejections.fetch_add(1, Ordering::Relaxed);
                    self.shared.recorder.add("serve.queue.shed_busy", 1);
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
    /// configuration. Assembled without stopping the world: counters are
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
        // Aggregate the striped caches; expose per-stripe accounting so a
        // hot stripe is visible, not averaged away.
        let mut per_stripe = Vec::with_capacity(self.shared.shards.len());
        let (mut entries, mut used, mut budget) = (0usize, 0usize, 0usize);
        let (mut hits, mut misses, mut evictions, mut invalidated) = (0u64, 0u64, 0u64, 0u64);
        for (i, shard) in self.shared.shards.iter().enumerate() {
            let cache = shard.cache.lock().expect("cache lock");
            let cs = cache.stats();
            entries += cache.len();
            used += cache.used_bytes();
            budget += cache.budget_bytes();
            hits += cs.hits;
            misses += cs.misses;
            evictions += cs.evictions;
            invalidated += cs.invalidated;
            per_stripe.push(Value::obj(vec![
                ("stripe", i.into()),
                ("entries", cache.len().into()),
                ("used_bytes", cache.used_bytes().into()),
                ("budget_bytes", cache.budget_bytes().into()),
                ("hits", cs.hits.into()),
                ("misses", cs.misses.into()),
            ]));
        }
        let cache_v = Value::obj(vec![
            ("entries", entries.into()),
            ("used_bytes", used.into()),
            ("budget_bytes", budget.into()),
            ("hits", hits.into()),
            ("misses", misses.into()),
            ("evictions", evictions.into()),
            ("invalidated", invalidated.into()),
            ("per_stripe", Value::Arr(per_stripe)),
        ]);
        let (mut f_entries, mut f_used, mut f_budget) = (0usize, 0usize, 0usize);
        let (mut parked, mut parked_bytes, mut parked_proven) = (0usize, 0usize, 0usize);
        let (mut f_hits, mut f_misses, mut f_evictions, mut f_invalidated, mut f_extended) =
            (0u64, 0u64, 0u64, 0u64, 0u64);
        let mut refused = 0u64;
        for shard in self.shared.shards.iter() {
            let fragments = shard.fragments.lock().expect("fragment cache lock");
            let fs = fragments.stats();
            f_entries += fragments.len();
            f_used += fragments.used_bytes();
            f_budget += fragments.budget_bytes();
            parked += fragments.state_count();
            parked_bytes += fragments.parked_bytes();
            parked_proven += fragments.proven_count();
            f_hits += fs.hits;
            f_misses += fs.misses;
            f_evictions += fs.evictions;
            f_invalidated += fs.invalidated;
            f_extended += fs.extended;
            refused += fs.states_refused;
        }
        let c = &self.shared.counters;
        let planner_v = Value::obj(vec![
            ("fragment_entries", f_entries.into()),
            ("fragment_used_bytes", f_used.into()),
            ("fragment_budget_bytes", f_budget.into()),
            ("fragment_hits", f_hits.into()),
            ("fragment_misses", f_misses.into()),
            ("fragment_evictions", f_evictions.into()),
            ("fragment_invalidated", f_invalidated.into()),
            ("fragments_extended", f_extended.into()),
            ("parked_states", parked.into()),
            ("parked_bytes", parked_bytes.into()),
            ("parked_proven", parked_proven.into()),
            ("states_refused", refused.into()),
            ("inflight", c.inflight_flights.load(Ordering::Relaxed).into()),
        ]);
        Value::obj(vec![
            (
                "engine",
                Value::obj(vec![
                    ("queries", c.queries.load(Ordering::Relaxed).into()),
                    ("computed", c.computed.load(Ordering::Relaxed).into()),
                    ("coalesced", c.coalesced.load(Ordering::Relaxed).into()),
                    ("served_hot", c.served_hot.load(Ordering::Relaxed).into()),
                    ("busy_rejections", c.busy_rejections.load(Ordering::Relaxed).into()),
                    ("deadline_misses", c.deadline_misses.load(Ordering::Relaxed).into()),
                    ("active_computes", c.active_computes.load(Ordering::Relaxed).into()),
                    ("peak_computes", c.peak_computes.load(Ordering::Relaxed).into()),
                    ("stripes", self.shared.cfg.stripes.into()),
                    ("workers", self.shared.cfg.workers.into()),
                    ("queue_depth", self.shared.cfg.queue_depth.into()),
                    ("kernel_threads", self.shared.cfg.kernel_threads.into()),
                ]),
            ),
            ("cache", cache_v),
            ("planner", planner_v),
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
            shared.counters.deadline_misses.fetch_add(1, Ordering::Relaxed);
            shared.recorder.add("serve.queue.shed_deadline", 1);
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
                shared.counters.deadline_misses.fetch_add(1, Ordering::Relaxed);
                shared.recorder.add("serve.queue.shed_deadline", 1);
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

fn execute_query(shared: &Shared, spec: &QuerySpec) -> ServeResult<QueryOutcome> {
    // Snapshot (batch view, version, optional hot profile) atomically,
    // under the owning series' lock only — computes on other series and
    // the whole admission path stay unaffected.
    let slot = shared.store.get(&spec.series)?;
    let (ps, version, hot) = {
        let mut entry = slot.write();
        let hot = match spec.kind {
            QueryKind::Motifs { .. } if spec.l_min == spec.l_max => entry
                .hot_profile(spec.l_min)
                .filter(|sp| sp.policy().reduced() == spec.policy.reduced())
                .map(|sp| sp.profile()),
            _ => None,
        };
        let (ps, version) = entry.profiled()?;
        (ps, version, hot)
    };
    // The version may have advanced past the admission-time probe; another
    // worker may also have filled the entry meanwhile. Re-probe.
    let shard = shared.shard_for(&spec.series);
    let key = CacheKey { series: spec.series.clone(), version, query: spec.query_key() };
    if let Some(payload) = shard.cache.lock().expect("cache lock").get(&key) {
        shared.recorder.add("serve.cache.hit", 1);
        return Ok(QueryOutcome { payload, cached: true, coalesced: false });
    }
    let started = Instant::now();
    let body = {
        let _active = ComputeSpan::enter(shared);
        let _span = valmod_obs::span!(&shared.recorder, "serve.compute_us");
        compute_payload(shared, shard, spec, &ps, version, hot)?
    };
    let payload = Arc::new(Value::obj(vec![
        ("series", Value::str(&spec.series)),
        ("version", version.into()),
        ("compute_ms", (started.elapsed().as_secs_f64() * 1e3).into()),
        ("body", body),
    ]));
    shared.counters.computed.fetch_add(1, Ordering::Relaxed);
    shard.cache.lock().expect("cache lock").insert(key, Arc::clone(&payload));
    Ok(QueryOutcome { payload, cached: false, coalesced: false })
}

fn compute_payload(
    shared: &Shared,
    shard: &Shard,
    spec: &QuerySpec,
    ps: &ProfiledSeries,
    version: u64,
    hot: Option<MatrixProfile>,
) -> ServeResult<Value> {
    let cfg = spec.valmod_config(shared.cfg.kernel_threads);
    let runner = Valmod::from_config(cfg.clone()).recorder(shared.recorder.clone());
    // VALMP-shaped queries run through the planner: the length range is
    // decomposed into grid segments whose per-length fragments are cached
    // in the series' own stripe and recomposed, so overlapping ranges
    // share work across requests.
    let planned = |runner: &Valmod| {
        crate::planner::execute_plan(
            ps,
            &spec.series,
            version,
            runner,
            &shard.fragments,
            &shared.recorder,
            (spec.l_min, spec.l_max),
        )
    };
    match spec.kind {
        QueryKind::Motifs { top } => {
            // Fixed-length queries at a registered hot length skip the
            // batch computation: the streaming profile is already live.
            let (motifs, source) = match hot {
                Some(profile) => {
                    shared.counters.served_hot.fetch_add(1, Ordering::Relaxed);
                    (top_motifs(&profile, top), "hot")
                }
                None => {
                    let (out, _) = planned(&runner)?;
                    (top_variable_length_motifs(&out.valmp, top, cfg.policy), "cold")
                }
            };
            Ok(MotifsBody {
                motifs: motifs.iter().map(MotifHit::from_pair).collect(),
                source: source.into(),
            }
            .to_value())
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
            let (out, _) = planned(&runner)?;
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

    #[test]
    fn hot_length_serves_fixed_length_motifs() {
        let eng = engine(1, 8, 0); // cache disabled: exercise the hot path
        let (values, _) = plant_motif(900, 32, 2, 0.001, 17);
        eng.load("s", values[..700].to_vec(), &[32], ExclusionPolicy::HALF, false).unwrap();
        eng.append("s", &values[700..]).unwrap();
        let out = eng.query(motif_spec("s", 32, 32)).unwrap();
        let body = out.payload.get("body").unwrap();
        assert_eq!(body.get("source").unwrap().as_str(), Some("hot"));
        // The hot result agrees with a cold run of the same spec.
        let eng2 = engine(1, 8, 0);
        let (values, _) = plant_motif(900, 32, 2, 0.001, 17);
        eng2.load("s", values, &[], ExclusionPolicy::HALF, false).unwrap();
        let cold = eng2.query(motif_spec("s", 32, 32)).unwrap();
        let cold_body = cold.payload.get("body").unwrap();
        assert_eq!(cold_body.get("source").unwrap().as_str(), Some("cold"));
        let (h, c) = (
            body.get("motifs").unwrap().as_arr().unwrap(),
            cold_body.get("motifs").unwrap().as_arr().unwrap(),
        );
        assert_eq!(h.len(), c.len());
        for (x, y) in h.iter().zip(c) {
            assert_eq!(x.get("a"), y.get("a"));
            assert_eq!(x.get("b"), y.get("b"));
            let dx = x.get("dist").unwrap().as_f64().unwrap();
            let dy = y.get("dist").unwrap().as_f64().unwrap();
            assert!((dx - dy).abs() < 1e-6);
        }
        for e in [eng, eng2] {
            e.shutdown();
            e.join();
        }
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
        let mut cache = ResultCache::new(1 << 20);
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
        eng.shared.counters.inflight_flights.fetch_add(1, Ordering::Relaxed);
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
        assert_eq!(eng.shared.counters.inflight_flights.load(Ordering::Relaxed), 0);
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
        // query on series B and a STATS snapshot both still complete. The
        // old single-RwLock store deadlocked here by construction.
        let eng = Arc::new(engine(2, 8, 1 << 20));
        eng.load("a", random_walk(400, 3), &[], ExclusionPolicy::HALF, false).unwrap();
        eng.load("b", random_walk(400, 5), &[], ExclusionPolicy::HALF, false).unwrap();
        let slot_a = eng.shared.store.get("a").unwrap();
        let held = slot_a.write();
        let (done_tx, done_rx) = mpsc::sync_channel(2);
        for _ in 0..1 {
            let eng = Arc::clone(&eng);
            let done = done_tx.clone();
            std::thread::spawn(move || {
                let query = eng.query(motif_spec("b", 16, 24)).map(|_| ());
                let stats = eng.stats();
                assert!(stats.get("series").is_some());
                let _ = done.send(query);
            });
        }
        let outcome = done_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("series B and STATS must not block behind series A's lock");
        outcome.unwrap();
        drop(held);
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
