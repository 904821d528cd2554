//! # valmod-mp
//!
//! Matrix-profile substrate for the VALMOD reproduction: z-normalised
//! distances (paper Eq. 3), distance profiles and MASS (Definition 2.4),
//! STOMP and the anytime STAMP (Definition 2.5), motif-pair and discord
//! extraction, trivial-match exclusion zones, and the exact tail extension
//! of a profile as its series grows ([`extend`]).
//!
//! The hot path is the cache-friendly [`diagonal`]-blocked STOMP kernel,
//! backed by a reusable [`workspace::Workspace`] (scratch buffers + FFT plan
//! cache), split over threads by diagonal ranges; the
//! [`stomp::StompDriver`] row streamer remains as its differential oracle.
//! The two kernels are bit-identical at every thread count — `valmod-check`
//! enforces it.
//!
//! ## Quick example
//!
//! ```
//! use valmod_data::generators::plant_motif;
//! use valmod_mp::{ExclusionPolicy, ProfiledSeries};
//! use valmod_mp::stomp::stomp;
//!
//! let (series, planted) = plant_motif(2_000, 64, 2, 0.001, 7);
//! let ps = ProfiledSeries::from_values(&series).unwrap();
//! let profile = stomp(&ps, 64, ExclusionPolicy::HALF).unwrap();
//! let (a, b, dist) = profile.motif_pair().unwrap();
//! // The planted pair is the motif.
//! assert!(dist < 1.0);
//! assert!(planted.offsets.iter().any(|&o| a.abs_diff(o) <= 2));
//! assert!(planted.offsets.iter().any(|&o| b.abs_diff(o) <= 2));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod context;
pub mod diagonal;
pub mod discord;
pub mod distance;
pub mod distance_profile;
pub mod exclusion;
pub mod extend;
pub mod join;
pub mod matrix_profile;
pub mod motif;
pub mod parallel;
pub mod stamp;
pub mod stomp;
pub mod workspace;

pub use context::ProfiledSeries;
pub use diagonal::{
    diagonal_chunks, diagonal_rows, lex_update, merge_partial, stomp_diagonal_parallel_ws,
    stomp_diagonal_range_ws, stomp_diagonal_ws, Diagonals, PassBaseline,
};
pub use discord::{top_discords, Discord};
pub use distance::{dist_from_qt, length_normalize, zdist_naive};
pub use distance_profile::{mass, self_distance_profile};
pub use exclusion::ExclusionPolicy;
pub use extend::{
    capture_cells, extend_cells, extend_profile, stomp_with_tail, stomp_with_tail_ws, TailState,
};
pub use join::{ab_join, closest_cross_pair};
pub use matrix_profile::MatrixProfile;
pub use motif::{top_motifs, MotifPair};
pub use parallel::{map_chunks, resolve_threads, stomp_parallel, stomp_parallel_with};
pub use stamp::stamp;
pub use stomp::{stomp, stomp_row, StompDriver};
pub use workspace::{HarvestHint, Workspace, DEFAULT_BLOCK};
