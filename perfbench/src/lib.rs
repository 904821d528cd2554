//! The repository benchmark: four workloads that drive the VALMOD stack
//! end to end and split the time by layer.
//!
//! * `discover_ecg` / `discover_emg` — in-process [`valmod_core::Valmod`]
//!   jobs, one at a time, on series where the Eq. 2 lower bound certifies
//!   almost every length (ECG) or none (EMG).
//! * `serve_explore` — two closed-loop clients against a `valmod serve`
//!   child over loopback TCP, each on its own series and stripe.
//! * `serve_ingest` — one open-loop writer appending to a durable series,
//!   each batch followed by the query that must reflect it.
//!
//! Every operation's output is checked outside the timed phase. A run
//! prints human-readable metric lines, one `{"record": …}` line describing
//! the run, and as its last line the result object
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 1` the
//! metrics are the per-layer ones instead of the end-to-end ones.
//! `README.md` next to this crate explains each workload and metric.

pub mod discover;
pub mod explore;
pub mod ingest;
pub mod report;
pub mod server;
pub mod stats;
pub mod sys;

use std::path::PathBuf;
use std::time::Duration;

use report::Outcome;

/// The workloads, by the names `--workload` accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// In-process discovery on an ECG-like series (LB certifies ~98%).
    DiscoverEcg,
    /// In-process discovery on an EMG-like series (LB certifies nothing).
    DiscoverEmg,
    /// Two closed-loop clients exploring length ranges over TCP.
    ServeExplore,
    /// One open-loop writer: durable APPEND batches, each followed by a query.
    ServeIngest,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::DiscoverEcg,
        Workload::DiscoverEmg,
        Workload::ServeExplore,
        Workload::ServeIngest,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DiscoverEcg => "discover_ecg",
            Workload::DiscoverEmg => "discover_emg",
            Workload::ServeExplore => "serve_explore",
            Workload::ServeIngest => "serve_ingest",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Everything one run needs besides the workload's own parameters.
#[derive(Debug, Clone)]
pub struct RunContext {
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: Duration,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// Root of the checkout: holds the workspace the server is built from
    /// and the scratch directory the serve workloads write to.
    pub root: PathBuf,
    /// How many times set-up is repeated; `setup_s` is the median.
    pub setups: usize,
    /// The `valmod` binary the serve workloads start ([`sys::build_server`]).
    pub server: PathBuf,
}

impl RunContext {
    /// The scratch directory for this process: inside the checkout, unique
    /// per process, removed by the workload that creates it.
    pub fn scratch_dir(&self, label: &str) -> PathBuf {
        self.root.join(".bench_work").join(format!("{label}-{}", std::process::id()))
    }
}

/// Runs one workload with its full-size parameters.
pub fn run(workload: Workload, ctx: &RunContext) -> Result<Outcome, String> {
    match workload {
        Workload::DiscoverEcg => discover::run(&discover::Params::ecg(ctx.seed), ctx),
        Workload::DiscoverEmg => discover::run(&discover::Params::emg(ctx.seed), ctx),
        Workload::ServeExplore => explore::run(&explore::Params::full(ctx.seed), ctx),
        Workload::ServeIngest => ingest::run(&ingest::Params::full(ctx.seed), ctx),
    }
}
