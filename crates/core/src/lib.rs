//! # valmod-core
//!
//! An exact, from-scratch Rust implementation of **VALMOD** (Linardi, Zhu,
//! Palpanas, Keogh — *Matrix Profile X: VALMOD — Scalable Discovery of
//! Variable-Length Motifs in Data Series*, SIGMOD 2018).
//!
//! Given a data series and a length range `[ℓ_min, ℓ_max]`, VALMOD finds the
//! exact motif pair of *every* length in the range — plus the
//! variable-length matrix profile (VALMP), ranked variable-length motifs,
//! top-K motif sets, and variable-length discords — while doing only a small
//! multiple of the work of a single-length search. The enabling idea is the
//! Eq. 2 lower-bounding distance ([`lb`]), whose per-profile rank
//! preservation lets each distance profile be summarised by its `p`
//! smallest-lower-bound entries ([`profile::PartialProfile`]).
//!
//! ## Module map (↔ paper)
//!
//! | Module | Paper |
//! |---|---|
//! | [`lb`] | §4.1, Eq. 2 + TLB (§6.2) |
//! | [`profile`] | `listDP` heaps |
//! | [`compute_mp`] | Algorithm 3 (`ComputeMatrixProfile`) |
//! | [`harvest`] | Algorithm 3 lines 18–24 (`listDP` harvest, gated) |
//! | [`sub_mp`] | Algorithm 4 (`ComputeSubMP`), `updateDistAndLB` |
//! | [`valmp`] | Algorithm 2 (`updateVALMP`) |
//! | [`mod@valmod`] | Algorithm 1 (driver) |
//! | [`pairs`] | Algorithm 5 (`updateVALMPForMotifSets`) |
//! | [`motif_sets`] | Algorithm 6 (`computeVarLengthMotifSets`), Def. 2.6 |
//! | [`ranking`] | §3 (length-normalised comparison, Fig. 2) |
//! | [`discords`] | §8 future work: variable-length discords |
//! | [`mod@complete_profiles`] | §8 future work: complete per-length profiles (Algorithm 1 + every ⊥ row refined or a full pass) |
//! | [`instrument`] | Figs. 9–11 diagnostics (registry-backed) |
//! | [`validate`] | shared degenerate-config rejection (driver, baselines, CLI) |
//!
//! ## Quick example
//!
//! The [`Valmod`] builder is the single entry point: configure the range
//! and knobs, optionally attach a `valmod-obs` recorder, then run.
//!
//! ```
//! use valmod_core::prelude::*;
//! use valmod_data::generators::plant_motif;
//!
//! // A series with a planted motif of length 64.
//! let (values, planted) = plant_motif(3_000, 64, 2, 0.001, 7);
//! let series = Series::new(values).unwrap();
//!
//! // Search every length in [48, 80].
//! let output = Valmod::new(48, 80).run(&series).unwrap();
//! let best = output.best_motif().unwrap();
//! // The best variable-length motif lands inside the planted instances.
//! assert!(planted.offsets.iter().any(|&o| best.a.abs_diff(o) < 64));
//! assert!(planted.offsets.iter().any(|&o| best.b.abs_diff(o) < 64));
//! ```
//!
//! To observe a run, attach a [`valmod_obs::Registry`]:
//!
//! ```
//! use valmod_core::prelude::*;
//!
//! let series = Series::new(valmod_data::generators::random_walk(400, 7)).unwrap();
//! let registry = Registry::new();
//! let _ = Valmod::new(16, 32)
//!     .p(5)
//!     .recorder(SharedRecorder::from(registry.clone()))
//!     .run(&series)
//!     .unwrap();
//! let snapshot = registry.snapshot();
//! assert!(snapshot.counter("core.lb.valid_rows").unwrap_or(0) > 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod complete_profiles;
pub mod compute_mp;
pub mod discords;
pub mod harvest;
pub mod instrument;
pub mod lb;
pub mod length_hint;
pub mod motif_sets;
pub mod pairs;
pub mod profile;
pub mod ranking;
pub mod sub_mp;
pub mod validate;
pub mod valmod;
pub mod valmp;

pub use complete_profiles::complete_profiles;
pub use compute_mp::{
    compute_matrix_profile, compute_matrix_profile_capture_with_ws, compute_matrix_profile_with,
    compute_matrix_profile_with_ws, compute_matrix_profile_ws, MpWithProfiles,
};
pub use discords::{variable_length_discords, VariableLengthDiscord};
pub use length_hint::{suggest_length_ranges, LengthHint};
pub use motif_sets::{compute_var_length_motif_sets, MotifSet, SetMember, SetStats};
pub use pairs::{BestKPairs, PairCandidate};
pub use ranking::{top_variable_length_motifs, LengthCorrection};
pub use sub_mp::{
    compute_sub_mp, compute_sub_mp_threaded, compute_sub_mp_threaded_with,
    compute_sub_mp_threaded_with_ws, SubMpResult,
};
pub use validate::{validate_length_range, validate_valmod_params};
pub use valmod::{
    compose_output, LengthMethod, LengthProfile, LengthReport, SegmentState, Valmod, ValmodConfig,
    ValmodOutput,
};
pub use valmp::Valmp;

/// One-stop imports for running VALMOD: the [`Valmod`] builder and its
/// configuration/output types, the observability handles it accepts, and
/// the `Series` input type.
pub mod prelude {
    pub use crate::valmod::{
        compose_output, LengthMethod, LengthProfile, LengthReport, Valmod, ValmodConfig,
        ValmodOutput,
    };
    pub use valmod_data::series::Series;
    pub use valmod_obs::{Recorder, Registry, SharedRecorder};
}
