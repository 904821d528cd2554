//! Property-based tests for the FFT substrate.

use proptest::prelude::*;
use valmod_fft::complex::Complex;
use valmod_fft::radix2::{fft, ifft};
use valmod_fft::real::{convolve, convolve_naive, sliding_dot_product, sliding_dot_product_naive};

fn finite_f64() -> impl Strategy<Value = f64> {
    // Keep magnitudes moderate so oracle comparisons stay well-conditioned.
    -1e3..1e3f64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fft_round_trip_recovers_input(values in prop::collection::vec((finite_f64(), finite_f64()), 1..129)) {
        let n = values.len().next_power_of_two();
        let mut buf: Vec<Complex> = values.iter().map(|&(r, i)| Complex::new(r, i)).collect();
        buf.resize(n, Complex::ZERO);
        let original = buf.clone();
        fft(&mut buf);
        ifft(&mut buf);
        for (a, b) in buf.iter().zip(&original) {
            prop_assert!((*a - *b).abs() < 1e-6, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn fft_is_linear(xs in prop::collection::vec(finite_f64(), 8..=8),
                     ys in prop::collection::vec(finite_f64(), 8..=8),
                     alpha in -10.0..10.0f64) {
        let x: Vec<Complex> = xs.iter().map(|&v| Complex::from_real(v)).collect();
        let y: Vec<Complex> = ys.iter().map(|&v| Complex::from_real(v)).collect();
        let combined: Vec<Complex> = x.iter().zip(&y).map(|(a, b)| *a * alpha + *b).collect();

        let mut fx = x.clone();
        fft(&mut fx);
        let mut fy = y.clone();
        fft(&mut fy);
        let mut fc = combined;
        fft(&mut fc);
        for ((a, b), c) in fx.iter().zip(&fy).zip(&fc) {
            prop_assert!((*a * alpha + *b - *c).abs() < 1e-6);
        }
    }

    #[test]
    fn convolution_matches_naive(a in prop::collection::vec(finite_f64(), 1..120),
                                 b in prop::collection::vec(finite_f64(), 1..120)) {
        let fast = convolve(&a, &b);
        let slow = convolve_naive(&a, &b);
        prop_assert_eq!(fast.len(), slow.len());
        let scale: f64 = 1.0 + slow.iter().map(|v| v.abs()).fold(0.0, f64::max);
        for (x, y) in fast.iter().zip(&slow) {
            prop_assert!((x - y).abs() / scale < 1e-9, "{} vs {}", x, y);
        }
    }

    #[test]
    fn sliding_dot_product_matches_naive(series in prop::collection::vec(finite_f64(), 8..300),
                                         qstart in 0usize..8, qlen in 2usize..8) {
        prop_assume!(qstart + qlen <= series.len());
        let query = series[qstart..qstart + qlen].to_vec();
        let fast = sliding_dot_product(&query, &series);
        let slow = sliding_dot_product_naive(&query, &series);
        prop_assert_eq!(fast.len(), slow.len());
        let scale: f64 = 1.0 + slow.iter().map(|v| v.abs()).fold(0.0, f64::max);
        for (x, y) in fast.iter().zip(&slow) {
            prop_assert!((x - y).abs() / scale < 1e-9);
        }
    }
}
