//! Property-based tests for the VALMOD core crate.

use proptest::prelude::*;
use valmod_core::compute_mp::compute_matrix_profile;
use valmod_core::lb::{lb_base, lb_scale, tightness};
use valmod_core::sub_mp::compute_sub_mp;
use valmod_data::generators::{random_walk, sine_mixture};
use valmod_mp::stomp::stomp;
use valmod_mp::{ExclusionPolicy, ProfiledSeries};

fn make_series(kind: u8, n: usize, seed: u64) -> Vec<f64> {
    match kind % 2 {
        0 => random_walk(n, seed),
        _ => sine_mixture(n, &[(0.025, 1.0), (0.09, 0.3)], 0.15, seed),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `ComputeSubMP`'s *known* entries are exactly the per-row minima of
    /// the true matrix profile, for arbitrary data, p, and step counts.
    #[test]
    fn sub_mp_known_entries_are_exact(kind in 0u8..2, seed in 0u64..400,
                                      p in 1usize..8, steps in 1usize..6) {
        let series = make_series(kind, 220, seed);
        let ps = ProfiledSeries::from_values(&series).unwrap();
        let policy = ExclusionPolicy::HALF;
        let l0 = 16usize;
        let mut state = compute_matrix_profile(&ps, l0, p, policy).unwrap();
        for l in (l0 + 1)..=(l0 + steps) {
            let res = compute_sub_mp(&ps, &mut state.partials, l, policy);
            let oracle = stomp(&ps, l, policy).unwrap();
            for (j, &d) in res.sub_mp.iter().enumerate() {
                if d.is_nan() {
                    continue;
                }
                if d.is_infinite() || oracle.mp[j].is_infinite() {
                    prop_assert_eq!(d.is_infinite(), oracle.mp[j].is_infinite());
                } else {
                    prop_assert!((d - oracle.mp[j]).abs() < 1e-6,
                        "l={} row {}: {} vs {}", l, j, d, oracle.mp[j]);
                }
            }
            if res.found_motif {
                let got = res.min_entry().map(|(_, d)| d);
                let want = oracle.motif_pair().map(|(_, _, d)| d);
                match (got, want) {
                    (Some(g), Some(w)) => prop_assert!((g - w).abs() < 1e-6),
                    (None, None) => {}
                    other => prop_assert!(false, "motif presence mismatch: {:?}", other),
                }
            }
            if !res.found_motif {
                state = compute_matrix_profile(&ps, l, p, policy).unwrap();
            }
        }
    }

    /// The harvested entries of every partial profile carry true distances
    /// and admissible bounds (LB ≤ dist at the anchor).
    #[test]
    fn harvested_bounds_are_admissible_at_anchor(kind in 0u8..2, seed in 0u64..400) {
        let series = make_series(kind, 150, seed);
        let ps = ProfiledSeries::from_values(&series).unwrap();
        let l = 16usize;
        let state = compute_matrix_profile(&ps, l, 4, ExclusionPolicy::HALF).unwrap();
        for prof in &state.partials {
            let sigma = ps.std(prof.owner, l);
            for e in prof.entries() {
                let lb = lb_scale(e.lb_base(), prof.anchor_sigma, sigma);
                let dist = prof.entry_dist(&ps, e);
                prop_assert!(lb <= dist + 1e-7,
                    "owner {} neighbour {}: LB {} > dist {}", prof.owner, e.neighbor(), lb, dist);
                prop_assert!(tightness(lb, dist) <= 1.0 + 1e-12);
            }
        }
    }

    /// lb_base is monotone non-increasing in q on [0, 1] and constant on
    /// [-1, 0] — the structure the heap ordering relies on.
    #[test]
    fn lb_base_monotonicity(q1 in -1.0f64..1.0, q2 in -1.0f64..1.0, l in 2usize..512) {
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        prop_assert!(lb_base(lo, l) >= lb_base(hi, l) - 1e-12,
            "lb_base must not increase with correlation");
    }
}
