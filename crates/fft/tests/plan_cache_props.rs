//! Property tests for [`valmod_fft::PlanCache`]: a cached plan must be
//! indistinguishable — bit for bit — from building a fresh plan per call.
//!
//! The cache shares its convolution core with the free functions, so these
//! properties pin the contract that makes the matrix-profile workspace
//! refactor safe: swapping fresh plans for cached ones cannot perturb a
//! single output bit, on either the naive or the FFT path.

use proptest::prelude::*;
use valmod_fft::real::{convolve, sliding_dot_product};
use valmod_fft::PlanCache;

fn finite_f64() -> impl Strategy<Value = f64> {
    -1e3..1e3f64
}

fn assert_bits_eq(cached: &[f64], fresh: &[f64], what: &str) {
    assert_eq!(cached.len(), fresh.len(), "{what}: length mismatch");
    for (i, (c, f)) in cached.iter().zip(fresh).enumerate() {
        assert_eq!(c.to_bits(), f.to_bits(), "{what}: bit mismatch at {i}: {c} vs {f}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Cached sliding dot products are bit-identical to fresh-plan ones for
    /// every query length, including both sides of the naive/FFT threshold,
    /// and stay identical when the same cache is reused.
    #[test]
    fn cached_sliding_dot_product_is_bit_identical(
        series in prop::collection::vec(finite_f64(), 40..400),
        m_frac in 0.05..1.0f64,
    ) {
        let m = ((series.len() as f64 * m_frac) as usize).max(1);
        let query = &series[..m];
        let fresh = sliding_dot_product(query, &series);
        let mut cache = PlanCache::new();
        let mut out = Vec::new();
        for round in 0..2 {
            cache.sliding_dot_product_into(query, &series, &mut out);
            assert_bits_eq(&out, &fresh, &format!("sdp m={m} round={round}"));
        }
    }

    /// Cached convolutions are bit-identical to the free function, for
    /// mixed sizes that exercise different power-of-two plan sizes from one
    /// shared cache.
    #[test]
    fn cached_convolution_is_bit_identical(
        a in prop::collection::vec(finite_f64(), 1..200),
        b in prop::collection::vec(finite_f64(), 1..200),
    ) {
        let mut cache = PlanCache::new();
        let mut out = Vec::new();
        cache.convolve_into(&a, &b, &mut out);
        assert_bits_eq(&out, &convolve(&a, &b), "convolve a·b");
        // Swapped operands hit a plan of the same size: a guaranteed reuse.
        cache.convolve_into(&b, &a, &mut out);
        assert_bits_eq(&out, &convolve(&b, &a), "convolve b·a");
    }
}

/// Deterministic spot check outside proptest: a long mixed workload (many
/// lengths interleaved, as a VALMOD range sweep issues them) never diverges
/// from the fresh-plan reference, and the cache actually gets hits.
#[test]
fn interleaved_range_sweep_stays_bit_identical() {
    let series: Vec<f64> = (0..1500).map(|i| ((i * 131 + 17) % 509) as f64 / 254.0 - 1.0).collect();
    let mut cache = PlanCache::new();
    let mut out = Vec::new();
    for l in (8..200).step_by(13).chain((8..200).step_by(13)) {
        let query = &series[l..l + l];
        cache.sliding_dot_product_into(query, &series, &mut out);
        assert_bits_eq(&out, &sliding_dot_product(query, &series), &format!("l={l}"));
    }
    assert!(cache.hits() > cache.misses(), "second lap must be all cache hits");
}
