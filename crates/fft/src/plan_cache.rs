//! A reusable cache of FFT plans and scratch buffers.
//!
//! `ComputeMatrixProfile` across a length range ℓmin..ℓmax issues one sliding
//! dot product per length (and more during lower-bound refinement), and each
//! one used to build a fresh [`Radix2Plan`] — recomputing the same twiddle
//! table and bit-reversal permutation over and over — plus four transient
//! allocations. [`PlanCache`] keeps plans keyed by transform size and reuses
//! one set of scratch buffers, so the steady-state cost of a cached call is
//! the transform itself.
//!
//! ## Bit-identity contract
//!
//! A cached call produces *bit-identical* output to the corresponding free
//! function ([`crate::real::convolve`], [`crate::real::sliding_dot_product`]):
//! both route through the same `convolve_fft_into` core with the same
//! naive-path threshold, and a plan is a pure function of its size, so a
//! cached plan and a fresh plan run exactly the same floating-point
//! operations. `tests/plan_cache_props.rs` asserts this property over random
//! inputs.

use std::collections::HashMap;

use crate::complex::Complex;
use crate::radix2::Radix2Plan;
use crate::real::{convolve_fft_into, convolve_naive_into, NAIVE_THRESHOLD};

/// Caches radix-2 plans by transform size, together with the
/// scratch buffers the packed real convolution needs.
///
/// Not thread-safe by design (no interior mutability): each worker owns its
/// own cache, typically inside a `valmod_mp` `Workspace`.
#[derive(Debug, Default)]
pub struct PlanCache {
    radix2: HashMap<usize, Radix2Plan>,
    buf: Vec<Complex>,
    spec: Vec<Complex>,
    reversed: Vec<f64>,
    full: Vec<f64>,
    hits: u64,
    misses: u64,
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of times a plan lookup was served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of times a plan had to be built.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of plans currently cached.
    pub fn plans(&self) -> usize {
        self.radix2.len()
    }

    /// Drops every cached plan and scratch buffer (counters are kept).
    pub fn clear(&mut self) {
        self.radix2.clear();
        self.buf = Vec::new();
        self.spec = Vec::new();
        self.reversed = Vec::new();
        self.full = Vec::new();
    }

    /// The radix-2 plan for power-of-two size `n`, built on first use.
    pub fn radix2(&mut self, n: usize) -> &Radix2Plan {
        match self.radix2.entry(n) {
            std::collections::hash_map::Entry::Occupied(e) => {
                self.hits += 1;
                e.into_mut()
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                self.misses += 1;
                v.insert(Radix2Plan::new(n))
            }
        }
    }

    /// Full linear convolution into `out` (cleared first). Bit-identical to
    /// [`crate::real::convolve`].
    pub fn convolve_into(&mut self, a: &[f64], b: &[f64], out: &mut Vec<f64>) {
        out.clear();
        if a.is_empty() || b.is_empty() {
            return;
        }
        if a.len().min(b.len()) <= NAIVE_THRESHOLD {
            convolve_naive_into(a, b, out);
            return;
        }
        let out_len = a.len() + b.len() - 1;
        let size = out_len.next_power_of_two();
        let PlanCache { radix2, buf, spec, hits, misses, .. } = self;
        let plan = match radix2.entry(size) {
            std::collections::hash_map::Entry::Occupied(e) => {
                *hits += 1;
                e.into_mut()
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                *misses += 1;
                v.insert(Radix2Plan::new(size))
            }
        };
        convolve_fft_into(a, b, plan, buf, spec, out);
    }

    /// Sliding dot product into `out` (cleared first). Bit-identical to
    /// [`crate::real::sliding_dot_product`]; `out` is empty when the query is
    /// empty or longer than the series.
    pub fn sliding_dot_product_into(&mut self, query: &[f64], series: &[f64], out: &mut Vec<f64>) {
        out.clear();
        let m = query.len();
        let n = series.len();
        if m == 0 || n < m {
            return;
        }
        // Cross-correlation = convolution with the reversed query; the
        // reversed query and the full convolution live in cache scratch.
        let mut reversed = std::mem::take(&mut self.reversed);
        reversed.clear();
        reversed.extend(query.iter().rev());
        let mut full = std::mem::take(&mut self.full);
        self.convolve_into(&reversed, series, &mut full);
        out.extend_from_slice(&full[m - 1..n]);
        self.reversed = reversed;
        self.full = full;
    }

    /// Sliding dot product returning a fresh vector (cached plans, but an
    /// allocation per call); see
    /// [`sliding_dot_product_into`](Self::sliding_dot_product_into).
    pub fn sliding_dot_product(&mut self, query: &[f64], series: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        self.sliding_dot_product_into(query, series, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::real::{convolve, sliding_dot_product};

    fn series(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 37 + 11) % 101) as f64 / 50.0 - 1.0).collect()
    }

    #[test]
    fn cached_convolution_is_bit_identical_to_free_function() {
        let a = series(300);
        let b = series(130);
        let mut cache = PlanCache::new();
        let mut out = Vec::new();
        for _ in 0..3 {
            cache.convolve_into(&a, &b, &mut out);
            let fresh = convolve(&a, &b);
            assert_eq!(out.len(), fresh.len());
            for (x, y) in out.iter().zip(&fresh) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        assert_eq!(cache.misses(), 1, "one plan built");
        assert_eq!(cache.hits(), 2, "two reuses");
    }

    #[test]
    fn cached_sliding_dot_product_matches_free_function_on_both_paths() {
        // Small query (naive path) and large query (FFT path).
        let t = series(600);
        let mut cache = PlanCache::new();
        for m in [4, 32, 33, 64] {
            let q = &t[10..10 + m];
            let cached = cache.sliding_dot_product(q, &t);
            let fresh = sliding_dot_product(q, &t);
            assert_eq!(cached.len(), fresh.len(), "m={m}");
            for (x, y) in cached.iter().zip(&fresh) {
                assert_eq!(x.to_bits(), y.to_bits(), "m={m}");
            }
        }
    }

    #[test]
    fn degenerate_inputs_yield_empty_output() {
        let mut cache = PlanCache::new();
        let mut out = vec![1.0];
        cache.sliding_dot_product_into(&[], &[1.0, 2.0], &mut out);
        assert!(out.is_empty());
        cache.sliding_dot_product_into(&[1.0, 2.0], &[1.0], &mut out);
        assert!(out.is_empty());
        cache.convolve_into(&[], &[1.0], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn clear_drops_plans_but_keeps_counters() {
        let t = series(500);
        let mut cache = PlanCache::new();
        cache.sliding_dot_product(&t[0..64], &t);
        assert!(cache.plans() > 0);
        let misses = cache.misses();
        cache.clear();
        assert_eq!(cache.plans(), 0);
        assert_eq!(cache.misses(), misses);
    }
}
