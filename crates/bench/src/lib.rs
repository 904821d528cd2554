//! # valmod-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! VALMOD evaluation (paper §6). One binary per experiment — see DESIGN.md
//! §4 for the experiment index — plus Criterion microbenches for the hot
//! kernels and the DESIGN.md §5 ablations.
//!
//! ## Scaling
//!
//! The paper ran on 0.1M–1M-point series with subsequence lengths 256–4096
//! on a Xeon with 32 GB of RAM. The binaries here default to laptop-scale
//! parameters with the same *ratios* (DESIGN.md §3) and honour two
//! environment variables:
//!
//! * `VALMOD_BENCH_SCALE` — multiplies series sizes and lengths
//!   (default 1.0; set 4 or more to approach paper scale).
//! * `VALMOD_BENCH_DEADLINE_SECS` — per-algorithm wall-clock budget before
//!   an entry is reported as `DNF` (default 60), mirroring the paper's
//!   "failed to terminate within a reasonable amount of time".
//!
//! Every binary prints a human-readable table and writes machine-readable
//! CSV under `target/experiments/`.
//!
//! ## Regression guarding
//!
//! Separate from the paper-reproduction binaries, [`regression`] holds the
//! pinned suite behind `valmod bench`: each entry times a current path
//! against its own baseline in the same run, and the suite emits the
//! `BENCH_core.json` snapshot checked into `docs/baselines/`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod params;
pub mod regression;
pub mod report;
pub mod runner;

pub use params::{BenchParams, Scale};
pub use regression::{run_suite, BenchEntry, RegressionReport};
pub use report::Report;
pub use runner::{run_algorithm, AlgoResult, Algorithm};
