//! Property-based tests of the core invariants, across crates.

use proptest::prelude::*;
use valmod_core::lb::{lb_base, lb_scale};
use valmod_core::valmod::{Valmod, ValmodConfig};
use valmod_data::generators::{random_walk, sine_mixture};
use valmod_mp::distance::{length_normalize, zdist_naive};
use valmod_mp::parallel::stomp_parallel;
use valmod_mp::stomp::stomp;
use valmod_mp::{ExclusionPolicy, ProfiledSeries};

/// A small family of structured-plus-noise series parameterised by seed.
/// Kind 3 embeds a flat (constant) stretch, which drives σ = 0 rows through
/// the key-0 lower-bound path.
fn make_series(kind: u8, n: usize, seed: u64) -> Vec<f64> {
    match kind % 4 {
        0 => random_walk(n, seed),
        1 => sine_mixture(n, &[(0.02, 1.0), (0.07, 0.5)], 0.1, seed),
        2 => {
            // Random walk with a planted repetition.
            let mut v = random_walk(n, seed);
            let l = n / 8;
            let (src, dst) = (n / 10, n / 2);
            let pattern: Vec<f64> = v[src..src + l].to_vec();
            v[dst..dst + l].copy_from_slice(&pattern);
            v
        }
        _ => {
            // Random walk with a flat stretch in the middle.
            let mut v = random_walk(n, seed);
            let flat = v[n / 3];
            for x in &mut v[n / 3..n / 3 + n / 5] {
                *x = flat;
            }
            v
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Eq. 2 admissibility, end to end: the lower bound derived at length ℓ
    /// never exceeds the true distance at ℓ+k, for arbitrary pairs.
    #[test]
    fn lower_bound_is_admissible(kind in 0u8..3, seed in 0u64..1000,
                                 i in 0usize..100, j in 100usize..200, k in 1usize..32) {
        let series = make_series(kind, 400, seed);
        let l = 24usize;
        let stats = |x: &[f64]| {
            let m = x.iter().sum::<f64>() / x.len() as f64;
            let v = x.iter().map(|&v| (v - m) * (v - m)).sum::<f64>() / x.len() as f64;
            (m, v.sqrt())
        };
        let a = &series[i..i + l];
        let b = &series[j..j + l];
        let (ma, sa) = stats(a);
        let (mb, sb) = stats(b);
        prop_assume!(sa > 1e-9 && sb > 1e-9);
        let qt: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
        let q = ((qt / l as f64 - ma * mb) / (sa * sb)).clamp(-1.0, 1.0);
        let (_, sb_new) = stats(&series[j..j + l + k]);
        let lb = lb_scale(lb_base(q, l), sb, sb_new);
        let truth = zdist_naive(&series[i..i + l + k], &series[j..j + l + k]);
        prop_assert!(lb <= truth + 1e-6, "LB {lb} > dist {truth} (k={k})");
    }

    /// The VALMP is a true lower envelope: for every offset, its recorded
    /// normalised distance equals some achievable match and is no better
    /// than the best achievable match over the range.
    #[test]
    fn valmp_entries_are_achievable_distances(kind in 0u8..3, seed in 0u64..500) {
        let n = 300usize;
        let series = make_series(kind, n, seed);
        let ps = ProfiledSeries::from_values(&series).unwrap();
        let (l_min, l_max) = (16usize, 22usize);
        let out = Valmod::from_config(ValmodConfig::new(l_min, l_max).with_p(4)).run_on(&ps).unwrap();
        for (i, pair) in out.valmp.iter_pairs() {
            let l = pair.l;
            prop_assert!(l >= l_min && l <= l_max);
            // The recorded pair's distance is reproducible from raw data.
            let d = zdist_naive(&series[pair.a..pair.a + l], &series[pair.b..pair.b + l]);
            prop_assert!((d - pair.dist).abs() < 1e-5,
                "slot {i}: recorded {} vs recomputed {d}", pair.dist);
            // And matches the stored normalised value.
            prop_assert!((length_normalize(pair.dist, l) - out.valmp.norm_distances[i]).abs() < 1e-9);
        }
    }

    /// Per-length exactness against STOMP for arbitrary generated series.
    #[test]
    fn valmod_matches_stomp_per_length(kind in 0u8..3, seed in 0u64..500) {
        let series = make_series(kind, 260, seed);
        let ps = ProfiledSeries::from_values(&series).unwrap();
        let out = Valmod::from_config(ValmodConfig::new(14, 20).with_p(3)).run_on(&ps).unwrap();
        for r in &out.per_length {
            let oracle = stomp(&ps, r.l, ExclusionPolicy::HALF).unwrap();
            match (r.motif, oracle.motif_pair()) {
                (Some(m), Some((_, _, d))) =>
                    prop_assert!((m.dist - d).abs() < 1e-6, "l={}: {} vs {d}", r.l, m.dist),
                (None, None) => {}
                other => prop_assert!(false, "presence mismatch at l={}: {:?}", r.l, other.0),
            }
        }
    }

    /// The parallel STOMP kernel equals the sequential one bit for bit for
    /// arbitrary series (including flat stretches, which exercise the zero-σ
    /// distance convention) and arbitrary thread counts — in particular
    /// counts that do not divide the diagonal count.
    #[test]
    fn stomp_parallel_matches_sequential(kind in 0u8..4, seed in 0u64..500,
                                         threads in 1usize..17) {
        let series = make_series(kind, 280, seed);
        let ps = ProfiledSeries::from_values(&series).unwrap();
        let l = 16usize;
        let seq = stomp(&ps, l, ExclusionPolicy::HALF).unwrap();
        let par = stomp_parallel(&ps, l, ExclusionPolicy::HALF, threads).unwrap();
        prop_assert_eq!(seq.len(), par.len());
        for i in 0..seq.len() {
            prop_assert_eq!(seq.mp[i].to_bits(), par.mp[i].to_bits(),
                "mp[{}] (threads={})", i, threads);
            prop_assert_eq!(seq.ip[i], par.ip[i], "ip[{}] (threads={})", i, threads);
        }
    }

    /// Parallel VALMOD (diagonal-split harvest + threaded sub-MP advance)
    /// equals the sequential driver bit for bit on random walks and
    /// flat-stretch series.
    #[test]
    fn parallel_valmod_matches_sequential(kind in 0u8..4, seed in 0u64..500,
                                          threads in 2usize..17) {
        let series = make_series(kind, 260, seed);
        let ps = ProfiledSeries::from_values(&series).unwrap();
        let seq = Valmod::from_config(ValmodConfig::new(14, 20).with_p(3)).run_on(&ps).unwrap();
        let par = Valmod::from_config(ValmodConfig::new(14, 20).with_p(3).with_threads(threads)).run_on(&ps)
            .unwrap();
        prop_assert_eq!(seq.per_length.len(), par.per_length.len());
        for (a, b) in seq.per_length.iter().zip(&par.per_length) {
            prop_assert_eq!(a.method, b.method, "threads={} l={}", threads, a.l);
            prop_assert_eq!(a.motif.map(|m| (m.a, m.b, m.dist.to_bits())),
                b.motif.map(|m| (m.a, m.b, m.dist.to_bits())), "threads={} l={}", threads, a.l);
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&seq.valmp.norm_distances), bits(&par.valmp.norm_distances),
            "threads={}", threads);
        prop_assert_eq!(&seq.valmp.indices, &par.valmp.indices, "threads={}", threads);
    }

    /// The matrix profile is invariant to affine transforms of the series
    /// (z-normalisation guarantees it); VALMOD must inherit that.
    #[test]
    fn valmod_is_affine_invariant(seed in 0u64..200, scale in 0.5f64..20.0, shift in -100.0f64..100.0) {
        let base = random_walk(220, seed);
        let transformed: Vec<f64> = base.iter().map(|v| v * scale + shift).collect();
        let ps_a = ProfiledSeries::from_values(&base).unwrap();
        let ps_b = ProfiledSeries::from_values(&transformed).unwrap();
        let runner = Valmod::new(16, 20).p(3);
        let out_a = runner.run_on(&ps_a).unwrap();
        let out_b = runner.run_on(&ps_b).unwrap();
        for (ra, rb) in out_a.per_length.iter().zip(&out_b.per_length) {
            let (ma, mb) = (ra.motif.unwrap(), rb.motif.unwrap());
            prop_assert!((ma.dist - mb.dist).abs() < 1e-5,
                "l={}: {} vs {}", ra.l, ma.dist, mb.dist);
        }
    }
}
