//! # valmod-baselines
//!
//! The comparators of the VALMOD evaluation (paper §6.1), all exact:
//!
//! * [`brute`] — `O(n²ℓ)` brute force (the test oracle).
//! * [`stomp_range()`] — STOMP run independently per length (the adapted
//!   fixed-length state of the art); [`stomp_profiles()`] keeps each whole
//!   profile.
//! * [`quick_motif()`] — QuickMotif: PAA summaries + Hilbert R-tree, best-first
//!   MBR-pair pruning with early-abandoning refinement.
//! * [`moen()`] — a MOEN-style enumerator of motifs of all lengths whose lower
//!   bound decays multiplicatively per length step (the behaviour §6.2
//!   contrasts with VALMOD's per-profile σ-ratio).
//!
//! Each range-capable entry point takes a wall-clock deadline so the bench
//! harness can reproduce the paper's "did not terminate in reasonable time"
//! outcomes without hanging.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod brute;
pub mod moen;
pub mod quick_motif;
pub mod stomp_range;

pub use brute::{brute_force_motif, brute_force_range};
pub use moen::{moen, MoenOutput};
pub use quick_motif::{quick_motif, quick_motif_range_with_deadline, QuickMotifConfig};
pub use stomp_range::{stomp_profiles, stomp_range, stomp_range_with_deadline};
