//! # valmod-fft
//!
//! A self-contained FFT substrate for the VALMOD reproduction.
//!
//! The matrix-profile algorithms (MASS, STOMP — paper Algorithm 3, line 5)
//! need one `O(n log n)` sliding dot product per matrix-profile computation;
//! everything else is incremental. This crate provides that kernel from
//! scratch, with no external numeric dependencies:
//!
//! * [`complex::Complex`] — a minimal complex number.
//! * [`radix2`] — an in-place iterative radix-2 Cooley–Tukey FFT with
//!   reusable plans.
//! * [`real`] — packed real convolution and the
//!   [`real::sliding_dot_product`] used by MASS/STOMP.
//! * [`plan_cache`] — a [`plan_cache::PlanCache`] of plans and scratch
//!   buffers so repeated transforms (one per length in a VALMOD range sweep)
//!   stop paying plan construction and allocation; cached calls are
//!   bit-identical to the free functions.
//!
//! ## Quick example
//!
//! ```
//! use valmod_fft::real::sliding_dot_product;
//!
//! let series: Vec<f64> = (0..128).map(|i| (i as f64 * 0.1).sin()).collect();
//! let query = &series[10..26];
//! let qt = sliding_dot_product(query, &series);
//! assert_eq!(qt.len(), series.len() - query.len() + 1);
//! // The query matches itself exactly at offset 10.
//! let energy: f64 = query.iter().map(|x| x * x).sum();
//! assert!((qt[10] - energy).abs() < 1e-9);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod complex;
pub mod plan_cache;
pub mod radix2;
pub mod real;

pub use complex::Complex;
pub use plan_cache::PlanCache;
pub use radix2::{fft, ifft, Direction, Radix2Plan};
pub use real::{convolve, sliding_dot_product};
