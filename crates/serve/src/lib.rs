//! # valmod-serve
//!
//! The resident service layer of the VALMOD reproduction: instead of
//! re-reading a series and recomputing its statistics on every CLI
//! invocation, a `valmod-serve` process holds **named, versioned series**
//! in memory and answers repeated motif/set/discord queries over them —
//! the deployment shape of the authors' SIGMOD demo suite, where
//! variable-length motif discovery is an interactive, standing operation.
//!
//! Layers (each usable on its own):
//!
//! * [`store::SeriesStore`] — named series with monotonically versioned
//!   append ingestion; batch state rebuilt lazily, hot lengths pinned;
//! * [`persist::Persistence`] — optional durability: per-series
//!   checksummed snapshots (temp-file + atomic rename) plus an
//!   append-only WAL that is fsynced *before* each batch applies, with
//!   crash recovery that truncates torn tails instead of erroring;
//! * [`cache::ResultCache`] — LRU result cache with byte-budget
//!   accounting, keyed by `(name, version, canonical query)` so stale
//!   hits are structurally impossible;
//! * [`planner`] + [`fragment::FragmentCache`] — the one path of every
//!   MOTIFS and DISCORDS query: grid-aligned segments whose per-length
//!   fragments are cached and recomposed bit-identically, and whose parked
//!   states extend over appended samples;
//! * [`engine::QueryEngine`] — a worker pool behind a bounded queue with
//!   per-request deadlines and single-flight coalescing of identical
//!   concurrent queries; overload degrades to explicit `busy` errors;
//! * [`protocol`] + [`value`] — a hand-rolled line-delimited JSON-ish
//!   wire format (the build is fully offline: no serde, no tokio);
//! * [`server::Server`] / [`client::Client`] — the `std::net` TCP front
//!   end and its blocking client.
//!
//! ## Quick example (in-process, no sockets)
//!
//! ```
//! use valmod_data::generators::plant_motif;
//! use valmod_mp::ExclusionPolicy;
//! use valmod_serve::engine::{EngineConfig, QueryEngine, QueryKind, QuerySpec};
//!
//! let engine = QueryEngine::new(EngineConfig::default());
//! let (values, _) = plant_motif(1_000, 32, 2, 0.001, 7);
//! engine.load("sensor", values, &[32], ExclusionPolicy::HALF, false).unwrap();
//! let spec = QuerySpec {
//!     series: "sensor".into(),
//!     kind: QueryKind::Motifs { top: 1 },
//!     l_min: 24,
//!     l_max: 40,
//!     p: 8,
//!     policy: ExclusionPolicy::HALF,
//!     deadline: None,
//! };
//! let cold = engine.query(spec.clone()).unwrap();
//! let warm = engine.query(spec).unwrap();
//! assert!(!cold.cached && warm.cached);
//! assert_eq!(cold.payload.as_ref(), warm.payload.as_ref());
//! engine.shutdown();
//! engine.join();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod client;
pub mod engine;
pub mod error;
pub mod fragment;
pub mod persist;
pub mod planner;
pub mod protocol;
pub mod response;
pub mod server;
pub mod store;
pub mod value;

pub use cache::{CacheCounters, CacheKey, ResultCache};
pub use client::{Client, Timeouts};
pub use engine::{
    split_budget, EngineConfig, EngineConfigBuilder, QueryEngine, QueryKind, QueryOutcome,
    QuerySpec,
};
pub use error::{ServeError, ServeResult};
pub use fragment::{FragmentCache, FragmentCounters, FragmentKey};
pub use persist::{
    Persistence, RecoveredSeries, Recovery, SnapshotMeta, DEFAULT_WAL_COMPACT_BYTES,
};
pub use planner::{block_of, plan_segments, PlanStats, Segment};
pub use protocol::{
    check_hello, hello_result, Request, Response, MAX_DEADLINE_MS, MAX_SLEEP_MS, PROTOCOL_VERSION,
};
pub use response::{
    Ack, BodyShape, DiscordHit, DiscordsBody, MotifHit, MotifsBody, QueryReply, SaveAck, SetEntry,
    SetsBody, StatsReply,
};
pub use server::{read_bounded_line, ConnectionCount, LineRead, Server, DEFAULT_MAX_LINE_BYTES};
pub use store::{stripe_of, SeriesSlot, SeriesStore, StoredSeries, DEFAULT_STRIPES};
pub use value::Value;

// Re-exported so durable-store callers (e.g. `valmod-check`'s recovery
// oracle) can pass a recorder without depending on `valmod-obs` directly.
pub use valmod_obs::SharedRecorder;
