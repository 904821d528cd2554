//! Property-based equivalence: a profile grown by `extend_profile`, one
//! sample at a time, is bit-identical to a cold STOMP over the grown series
//! in the frame pinned at the seed, and within tolerance of batch STOMP in
//! the grown series' own frame.

use proptest::prelude::*;
use valmod_data::error::DataError;
use valmod_data::generators::{random_walk, sine_mixture};
use valmod_mp::stomp::stomp;
use valmod_mp::{
    extend_profile, stomp_with_tail, ExclusionPolicy, MatrixProfile, ProfiledSeries, TailState,
};

fn make_series(kind: u8, n: usize, seed: u64) -> Vec<f64> {
    match kind % 2 {
        0 => random_walk(n, seed),
        _ => sine_mixture(n, &[(0.03, 1.0), (0.011, 0.4)], 0.2, seed),
    }
}

/// A profile and its tail state, grown in the frame pinned at the seed.
struct Grown {
    offset: f64,
    profile: MatrixProfile,
    state: TailState,
}

impl Grown {
    /// Profiles `seed` cold and pins its frame for the growth to come.
    fn new(seed: &[f64], l: usize, policy: ExclusionPolicy) -> Grown {
        let base = ProfiledSeries::from_values(seed).expect("seed series");
        let (profile, state) = stomp_with_tail(&base, l, policy).expect("seed profile");
        Grown { offset: base.offset(), profile, state }
    }

    /// Extends the profile over `prefix`, which grows the seeded series.
    fn grow_to(&mut self, prefix: &[f64]) -> ProfiledSeries {
        let ps = ProfiledSeries::with_offset(prefix, self.offset).expect("pinned view");
        extend_profile(&mut self.profile, &mut self.state, &ps).expect("extension");
        ps
    }
}

/// Grows a profile of `series[..seed_len]` one sample at a time to the whole
/// series, then asserts it equals cold STOMP in the pinned frame bit for
/// bit, and batch STOMP in the series' own frame to a tolerance (in linear
/// and squared distance) and in exclusion-zone structure.
fn assert_growth_equals_batch(series: &[f64], seed_len: usize, l: usize, policy: ExclusionPolicy) {
    let mut grown = Grown::new(&series[..seed_len], l, policy);
    let mut pinned = None;
    for n in seed_len + 1..=series.len() {
        pinned = Some(grown.grow_to(&series[..n]));
    }
    let profile = &grown.profile;

    if let Some(pinned) = pinned {
        let cold = stomp(&pinned, l, policy).unwrap();
        assert_eq!(profile.len(), cold.len(), "pinned-frame row counts must agree");
        for i in 0..cold.len() {
            assert_eq!(profile.mp[i].to_bits(), cold.mp[i].to_bits(), "row {i}: pinned-frame bits");
            assert_eq!(profile.ip[i], cold.ip[i], "row {i}: pinned-frame neighbour");
        }
    }

    let ps = ProfiledSeries::from_values(series).unwrap();
    let batch = stomp(&ps, l, policy).unwrap();
    assert_eq!(profile.len(), batch.len(), "profile row counts must agree");
    let radius = policy.radius(l);
    for i in 0..batch.len() {
        let (s, b) = (profile.mp[i], batch.mp[i]);
        if s.is_infinite() || b.is_infinite() {
            assert_eq!(s.is_infinite(), b.is_infinite(), "row {i}: finiteness disagrees");
            continue;
        }
        // Compare in squared distance too: the tolerance must hold for the
        // quantity VALMOD's lower bound is phrased in.
        assert!((s - b).abs() < 1e-6, "row {i}: extended {s} vs batch {b}");
        assert!((s * s - b * b).abs() < 1e-5, "row {i}: squared {} vs {}", s * s, b * b);
        // The claimed neighbour must honour the exclusion zone.
        assert!(
            i.abs_diff(profile.ip[i]) >= radius,
            "row {i}: neighbour {} inside exclusion radius {radius}",
            profile.ip[i]
        );
        assert!(profile.ip[i] < batch.len(), "row {i}: neighbour out of range");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn extension_after_k_single_samples_equals_batch(kind in 0u8..2, seed in 0u64..1000,
                                                      k in 1usize..80, l in 6usize..24) {
        // Seed length floats so the seed/growth boundary lands everywhere
        // relative to the exclusion zone.
        let seed_len = 200 - k;
        prop_assume!(seed_len >= 2 * l);
        let series = make_series(kind, 200, seed);
        assert_growth_equals_batch(&series, seed_len, l, ExclusionPolicy::HALF);
    }

    #[test]
    fn extension_matches_batch_under_quarter_exclusion(seed in 0u64..500, k in 1usize..40) {
        let series = make_series(0, 160, seed);
        assert_growth_equals_batch(&series, 160 - k, 12, ExclusionPolicy::QUARTER);
    }

    #[test]
    fn constant_stretch_growth_agrees_with_batch(seed in 0u64..500, run in 12usize..40,
                                                 level in -4i32..4) {
        // A flat run makes subsequence std hit zero — the degenerate case
        // where extended and batch profiles must still tell the same story
        // (both may report inf or both a finite correction).
        let mut series = make_series(1, 160, seed);
        series.extend(std::iter::repeat_n(level as f64, run));
        series.extend(make_series(0, 40, seed + 1));
        assert_growth_equals_batch(&series, 160, 14, ExclusionPolicy::HALF);
    }

    #[test]
    fn newest_window_neighbour_is_outside_the_exclusion_zone(seed in 0u64..500, k in 1usize..50) {
        let series = make_series(0, 150, seed);
        let mut grown = Grown::new(&series[..150 - k], 10, ExclusionPolicy::HALF);
        for n in 150 - k + 1..=150 {
            grown.grow_to(&series[..n]);
            let profile = &grown.profile;
            let newest = profile.len() - 1;
            if profile.mp[newest].is_finite() {
                prop_assert!(newest.abs_diff(profile.ip[newest]) >= profile.exclusion_radius,
                    "n={}: newest neighbour {} too close", n, profile.ip[newest]);
            }
        }
    }

    #[test]
    fn non_finite_growth_is_refused_and_changes_nothing(seed in 0u64..500, k in 1usize..20,
                                                        at in 0usize..20, nan in 0u8..2) {
        // A batch with one non-finite sample is refused whole: the pinned
        // view rejects it before the profile or the state sees a sample,
        // and a finite batch then extends as if the refusal never happened.
        let series = make_series(0, 120 + k, seed);
        let mut grown = Grown::new(&series[..120], 10, ExclusionPolicy::HALF);
        let before = grown.profile.clone();
        let mut bad = series.clone();
        let at = at % k;
        bad[120 + at] = if nan == 0 { f64::NAN } else { f64::NEG_INFINITY };
        let err = ProfiledSeries::with_offset(&bad, grown.offset).unwrap_err();
        prop_assert!(matches!(err, DataError::NonFinite { index } if index == 120 + at), "{}", err);
        prop_assert_eq!(grown.state.n(), 120);
        prop_assert_eq!(grown.profile.len(), before.len());
        prop_assert!(grown.profile.mp.iter().zip(&before.mp).all(|(a, b)| a.to_bits() == b.to_bits()));
        prop_assert_eq!(&grown.profile.ip, &before.ip);

        let ps = grown.grow_to(&series);
        prop_assert_eq!(grown.state.n(), 120 + k);
        let cold = stomp(&ps, 10, ExclusionPolicy::HALF).unwrap();
        prop_assert!(grown.profile.mp.iter().zip(&cold.mp).all(|(a, b)| a.to_bits() == b.to_bits()));
        prop_assert_eq!(&grown.profile.ip, &cold.ip);
    }
}
