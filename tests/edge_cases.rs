//! Failure-injection and degenerate-input behaviour across the stack.

use valmod_baselines::stomp_range::stomp_range;
use valmod_core::valmod::{Valmod, ValmodConfig};
use valmod_data::generators::random_walk;
use valmod_data::series::Series;
use valmod_mp::{ExclusionPolicy, ProfiledSeries};

#[test]
fn constant_series_yields_zero_distance_motifs() {
    // Every subsequence is flat ⇒ every pair has distance 0 by convention.
    let series = Series::new(vec![5.0; 300]).unwrap();
    let out = Valmod::from_config(ValmodConfig::new(16, 20).with_p(3)).run(&series).unwrap();
    for r in &out.per_length {
        let m = r.motif.expect("flat pairs exist");
        assert_eq!(m.dist, 0.0, "l={}", r.l);
    }
}

#[test]
fn flat_regions_inside_noisy_data_do_not_poison_results() {
    let mut values = random_walk(600, 5);
    for v in &mut values[200..320] {
        *v = 3.0; // a long plateau
    }
    let series = Series::new(values).unwrap();
    let out = Valmod::from_config(ValmodConfig::new(24, 30).with_p(4)).run(&series).unwrap();
    // The flat-vs-flat pairs are distance 0 and legitimately win; results
    // must be finite and exact vs STOMP.
    let ps = ProfiledSeries::new(&series);
    let oracle = stomp_range(&ps, 24, 30, ExclusionPolicy::HALF, 1).unwrap();
    for (k, r) in out.per_length.iter().enumerate() {
        let (m, o) = (r.motif.unwrap(), oracle[k].unwrap());
        assert!((m.dist - o.dist).abs() < 1e-6, "l={}: {} vs {}", r.l, m.dist, o.dist);
    }
}

#[test]
fn giant_dc_offset_does_not_destroy_precision() {
    // Values around 1e9 with unit-scale structure: the centred pipeline
    // (DESIGN.md §7) must keep distances accurate.
    let base = random_walk(400, 7);
    let huge: Vec<f64> = base.iter().map(|v| v + 1e9).collect();
    let ps_a = ProfiledSeries::from_values(&base).unwrap();
    let ps_b = ProfiledSeries::from_values(&huge).unwrap();
    let a = Valmod::from_config(ValmodConfig::new(20, 26).with_p(4)).run_on(&ps_a).unwrap();
    let b = Valmod::from_config(ValmodConfig::new(20, 26).with_p(4)).run_on(&ps_b).unwrap();
    for (ra, rb) in a.per_length.iter().zip(&b.per_length) {
        let (ma, mb) = (ra.motif.unwrap(), rb.motif.unwrap());
        assert!(
            (ma.dist - mb.dist).abs() < 1e-4,
            "l={}: {} vs {} under 1e9 offset",
            ra.l,
            ma.dist,
            mb.dist
        );
    }
}

#[test]
fn minimum_viable_series_and_range() {
    // The smallest configuration that admits a non-trivial answer.
    let series = Series::new(random_walk(30, 1)).unwrap();
    let out = Valmod::from_config(ValmodConfig::new(4, 5).with_p(1)).run(&series).unwrap();
    assert_eq!(out.per_length.len(), 2);
    for r in &out.per_length {
        assert!(r.motif.is_some());
    }
}

#[test]
fn range_longer_than_series_fails_cleanly() {
    let series = Series::new(random_walk(50, 2)).unwrap();
    let err = Valmod::from_config(ValmodConfig::new(10, 60)).run(&series).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("shorter"), "unhelpful error: {msg}");
}

#[test]
fn nan_and_infinity_are_rejected_at_the_boundary() {
    assert!(Series::new(vec![1.0, f64::NAN, 2.0]).is_err());
    assert!(Series::new(vec![1.0, f64::NEG_INFINITY]).is_err());
    assert!(ProfiledSeries::from_values(&[1.0, f64::NAN]).is_err());
}

#[test]
fn repeated_identical_pattern_everywhere() {
    // A perfectly periodic series: motifs at distance ~0 for every length;
    // the exclusion zone must prevent self matches.
    let values: Vec<f64> = (0..500).map(|i| ((i % 25) as f64 - 12.0).abs()).collect();
    let series = Series::new(values).unwrap();
    let out = Valmod::from_config(ValmodConfig::new(25, 30).with_p(3)).run(&series).unwrap();
    for r in &out.per_length {
        let m = r.motif.unwrap();
        assert!(m.dist < 1e-6, "l={}: periodic motif should be ~exact ({})", r.l, m.dist);
        assert!(m.b - m.a >= ExclusionPolicy::HALF.radius(m.l));
    }
}

// ---------------------------------------------------------------------------
// Named regressions promoted from the valmod-check adversarial families
// (PR 4). Each pins a numeric edge the harness sweeps every CI run; the
// generators in crates/check/src/generators.rs produce the same shapes.
// ---------------------------------------------------------------------------

#[test]
fn regression_single_spike_on_constant_floor() {
    // One huge spike in an otherwise flat series: windows covering the
    // spike have enormous σ, the rest are flat. VALMOD must agree with
    // STOMP on every length and never report a spurious sub-zero distance.
    let mut values = vec![2.5; 200];
    values[117] = 1e8;
    let ps = ProfiledSeries::from_values(&values).unwrap();
    let out = Valmod::from_config(ValmodConfig::new(8, 14).with_p(2)).run_on(&ps).unwrap();
    let oracle = stomp_range(&ps, 8, 14, ExclusionPolicy::HALF, 1).unwrap();
    for (r, o) in out.per_length.iter().zip(&oracle) {
        match (&r.motif, o) {
            (Some(m), Some(o)) => {
                assert!(m.dist >= 0.0, "l={}: negative distance {}", r.l, m.dist);
                assert!((m.dist - o.dist).abs() < 1e-6, "l={}: {} vs {}", r.l, m.dist, o.dist);
            }
            (None, None) => {}
            other => panic!("l={}: presence mismatch {:?}", r.l, other.0),
        }
    }
}

#[test]
fn regression_noise_at_the_flatness_threshold() {
    // Constant plus ±1e-9 noise: σ sits at the flatness boundary where
    // z-normalisation amplifies rounding. Both sides must classify the same
    // windows as flat and agree on distances.
    let mut rng = valmod_data::rng::Xoshiro256::seed_from_u64(99);
    let values: Vec<f64> = (0..160).map(|_| 40.0 + rng.uniform(-1e-9, 1e-9)).collect();
    let ps = ProfiledSeries::from_values(&values).unwrap();
    let out = Valmod::from_config(ValmodConfig::new(6, 10).with_p(2)).run_on(&ps).unwrap();
    let oracle = stomp_range(&ps, 6, 10, ExclusionPolicy::HALF, 1).unwrap();
    for (r, o) in out.per_length.iter().zip(&oracle) {
        match (&r.motif, o) {
            (Some(m), Some(o)) => {
                assert!((m.dist - o.dist).abs() < 1e-6, "l={}: {} vs {}", r.l, m.dist, o.dist)
            }
            (None, None) => {}
            other => panic!("l={}: presence mismatch {:?}", r.l, other.0),
        }
    }
}

#[test]
fn regression_series_barely_longer_than_l_max() {
    // n = l_max + 1: one or two subsequences per length, every pair inside
    // the exclusion zone. Must return None per length — not panic, not
    // fabricate a pair.
    let series = Series::new(random_walk(16, 21)).unwrap();
    let out = Valmod::from_config(ValmodConfig::new(12, 15).with_p(1)).run(&series).unwrap();
    assert_eq!(out.per_length.len(), 4);
    for r in &out.per_length {
        assert!(r.motif.is_none(), "l={}: no non-trivial pair exists", r.l);
    }
    // One step further (l_max + 1 > n) is a clean error.
    assert!(Valmod::from_config(ValmodConfig::new(12, 16)).run(&series).is_err());
}

#[test]
fn regression_inverted_range_is_an_error_not_an_empty_answer() {
    // Before PR 4 the baseline range drivers silently returned an empty
    // Vec on l_min > l_max; now every range entry point rejects it.
    let ps = ProfiledSeries::from_values(&random_walk(100, 3)).unwrap();
    assert!(stomp_range(&ps, 20, 10, ExclusionPolicy::HALF, 1).is_err());
    assert!(valmod_baselines::brute_force_range(&ps, 20, 10, ExclusionPolicy::HALF).is_err());
    assert!(valmod_baselines::moen(&ps, 20, 10, ExclusionPolicy::HALF, std::time::Duration::MAX)
        .is_err());
    assert!(valmod_baselines::quick_motif_range_with_deadline(
        &ps,
        20,
        10,
        ExclusionPolicy::HALF,
        &valmod_baselines::QuickMotifConfig::default(),
        std::time::Duration::MAX,
    )
    .is_err());
    let series = Series::new(random_walk(100, 3)).unwrap();
    assert!(Valmod::from_config(ValmodConfig::new(20, 10)).run(&series).is_err());
}

#[test]
fn regression_streaming_extreme_amplitude_matches_batch() {
    // 1e9-scale samples on a 1e9 DC offset, grown in two halves: the
    // incremental dot-product updates must not drift from the batch answer.
    let values: Vec<f64> = random_walk(240, 31).iter().map(|x| 1e9 + x * 1e9).collect();
    let (profile, pinned) = extend_in_chunks(&values, 120, &[120], 10);
    // Bit for bit the cold STOMP of the grown series in the seed's frame...
    assert_bit_identical(&profile, &valmod_mp::stomp(&pinned, 10, ExclusionPolicy::HALF).unwrap());
    // ...and close to batch STOMP in the grown series' own frame.
    let ps = ProfiledSeries::from_values(&values).unwrap();
    let batch = valmod_mp::stomp(&ps, 10, ExclusionPolicy::HALF).unwrap();
    for i in 0..batch.len() {
        let (s, b) = (profile.mp[i], batch.mp[i]);
        assert_eq!(s.is_finite(), b.is_finite(), "row {i}");
        if s.is_finite() {
            assert!((s - b).abs() < 1e-5 * (1.0 + b), "row {i}: extended {s} vs batch {b}");
        }
    }
}

/// Profiles `values[..seed_len]` with a captured tail, then extends it by
/// each chunk of `chunks` in turn, in the seed's pinned frame. Returns the
/// grown profile and the pinned view of the whole grown series.
fn extend_in_chunks(
    values: &[f64],
    seed_len: usize,
    chunks: &[usize],
    l: usize,
) -> (valmod_mp::MatrixProfile, ProfiledSeries) {
    let base = ProfiledSeries::from_values(&values[..seed_len]).unwrap();
    let (mut profile, mut state) =
        valmod_mp::stomp_with_tail(&base, l, ExclusionPolicy::HALF).unwrap();
    let offset = base.offset();
    let (mut grown, mut n) = (base, seed_len);
    for &k in chunks {
        n += k;
        grown = ProfiledSeries::with_offset(&values[..n], offset).unwrap();
        valmod_mp::extend_profile(&mut profile, &mut state, &grown).unwrap();
    }
    (profile, grown)
}

fn assert_bit_identical(a: &valmod_mp::MatrixProfile, b: &valmod_mp::MatrixProfile) {
    assert_eq!(a.mp.len(), b.mp.len());
    for i in 0..a.mp.len() {
        assert_eq!(a.mp[i].to_bits(), b.mp[i].to_bits(), "row {i}: distances differ");
        assert_eq!(a.ip[i], b.ip[i], "row {i}: neighbour offsets differ");
    }
}

#[test]
fn regression_text_loader_rejects_inf_and_nan_tokens() {
    // "inf" and "NaN" parse as f64 but must be rejected at the parse site
    // with the line number, not later with only a flat index.
    for text in ["1.0\ninf\n", "1.0\n-inf 2.0\n", "NaN\n"] {
        let err = valmod_data::io::parse_text(text).unwrap_err();
        assert_eq!(err.kind(), "parse", "input {text:?} gave {err}");
    }
}

#[test]
fn regression_hot_profile_tiny_appends_across_the_boundary_match_one_extend() {
    // PR 6: a hot profile fed tiny appends (1–3 samples) that straddle the
    // hot-length boundary must end bit-for-bit identical to one extend over
    // the same samples — the incremental recurrence must not depend on how
    // the growth is chunked. The first chunks complete no window at all
    // (seed 20, ℓ = 16: the profile grows only once 16 new rows exist),
    // which is exactly where partial-window bookkeeping used to be fragile.
    let l = 16;
    let values = random_walk(140, 63);
    let seed_len = 20;
    let mut sizes = Vec::new();
    let (mut rest, mut size) = (values.len() - seed_len, 1);
    while rest > 0 {
        sizes.push(size.min(rest));
        rest -= size.min(rest);
        size = size % 3 + 1; // 1, 2, 3, 1, 2, 3, ...
    }
    let (chunked, pinned) = extend_in_chunks(&values, seed_len, &sizes, l);
    let (single, _) = extend_in_chunks(&values, seed_len, &[values.len() - seed_len], l);
    assert_eq!(chunked.mp.len(), values.len() - l + 1, "profile must cover every window");
    assert_bit_identical(&chunked, &single);
    // Both are the cold STOMP of the final series in the seed's frame, bit
    // for bit, and agree with a batch recompute in the series' own frame
    // to numerical tolerance (that frame centres on a different mean).
    assert_bit_identical(&chunked, &valmod_mp::stomp(&pinned, l, ExclusionPolicy::HALF).unwrap());
    let ps = ProfiledSeries::from_values(&values).unwrap();
    let batch = valmod_mp::stomp(&ps, l, ExclusionPolicy::HALF).unwrap();
    for i in 0..batch.len() {
        assert_eq!(chunked.mp[i].is_finite(), batch.mp[i].is_finite(), "row {i}");
        if batch.mp[i].is_finite() {
            assert!(
                (chunked.mp[i] - batch.mp[i]).abs() < 1e-6,
                "row {i}: extended {} vs batch {}",
                chunked.mp[i],
                batch.mp[i]
            );
        }
    }
}

#[test]
fn regression_hot_length_longer_than_the_series_fails_cleanly() {
    // A hot length needs at least two complete windows.
    // A shorter series must be a clean error at every layer — the raw
    // profile-with-tail seed, and a store LOAD, which must reject the whole
    // request without registering the series.
    let short = random_walk(10, 4);
    let short_ps = ProfiledSeries::from_values(&short).unwrap();
    assert!(valmod_mp::stomp_with_tail(&short_ps, 16, ExclusionPolicy::HALF).is_err());
    let recorder = valmod_serve::SharedRecorder::noop();
    let store = valmod_serve::SeriesStore::new();
    assert!(store
        .load("tiny", short.clone(), &[16], ExclusionPolicy::HALF, false, &recorder)
        .is_err());
    assert!(store.get("tiny").is_err(), "a failed load must not register the series");
    // The same hot length is fine once the series holds a pair of windows,
    // and it stays registered as the series grows.
    store.load("tiny", random_walk(24, 4), &[16], ExclusionPolicy::HALF, false, &recorder).unwrap();
    store.append("tiny", &short, &recorder).unwrap();
    let slot = store.get("tiny").unwrap();
    assert_eq!(slot.hot_lengths(), &[16]);
    assert_eq!(slot.read().len(), 24 + 10);
}

#[test]
fn single_sample_step_range_is_consistent_with_wide_ranges() {
    // Splitting [20, 26] into [20,23] + [24,26] gives the same per-length
    // answers as one run.
    let series = Series::new(random_walk(300, 9)).unwrap();
    let whole = Valmod::from_config(ValmodConfig::new(20, 26).with_p(4)).run(&series).unwrap();
    let lo = Valmod::from_config(ValmodConfig::new(20, 23).with_p(4)).run(&series).unwrap();
    let hi = Valmod::from_config(ValmodConfig::new(24, 26).with_p(4)).run(&series).unwrap();
    let combined: Vec<f64> =
        lo.per_length.iter().chain(hi.per_length.iter()).map(|r| r.motif.unwrap().dist).collect();
    let whole_dists: Vec<f64> = whole.per_length.iter().map(|r| r.motif.unwrap().dist).collect();
    for (a, b) in whole_dists.iter().zip(&combined) {
        assert!((a - b).abs() < 1e-6);
    }
}

#[test]
fn tied_motif_and_discord_extraction_is_kernel_independent() {
    // A series with a long plateau produces many exactly-tied distances
    // (0 between flat pairs, √ℓ between flat and non-flat rows). Motif and
    // discord extraction document smaller-offset-first tie-breaking, so the
    // row, diagonal, and parallel kernels must all select the same pairs.
    let mut values = random_walk(500, 77);
    for v in &mut values[150..260] {
        *v = 2.0;
    }
    let ps = ProfiledSeries::from_values(&values).unwrap();
    let l = 20;
    let row = valmod_mp::stomp_row(&ps, l, ExclusionPolicy::HALF).unwrap();
    let mut ws = valmod_mp::Workspace::new();
    let diag = valmod_mp::stomp_diagonal_ws(&ps, l, ExclusionPolicy::HALF, &mut ws).unwrap();
    let par =
        valmod_mp::stomp_diagonal_parallel_ws(&ps, l, ExclusionPolicy::HALF, 3, &mut ws).unwrap();

    let motifs_of = |p: &valmod_mp::MatrixProfile| -> Vec<(usize, usize, u64)> {
        valmod_mp::top_motifs(p, 4).iter().map(|m| (m.a, m.b, m.dist.to_bits())).collect()
    };
    let discords_of = |p: &valmod_mp::MatrixProfile| -> Vec<(usize, u64)> {
        valmod_mp::top_discords(p, 4).iter().map(|d| (d.offset, d.nn_dist.to_bits())).collect()
    };
    let (m_row, d_row) = (motifs_of(&row), discords_of(&row));
    assert_eq!(motifs_of(&diag), m_row, "diagonal kernel selects different motifs");
    assert_eq!(motifs_of(&par), m_row, "parallel kernel selects different motifs");
    assert_eq!(discords_of(&diag), d_row, "diagonal kernel selects different discords");
    assert_eq!(discords_of(&par), d_row, "parallel kernel selects different discords");
    // Ties resolved toward smaller offsets: within each equal-distance run
    // of the motif list, owner offsets ascend.
    for w in motifs_of(&row).windows(2) {
        if w[0].2 == w[1].2 {
            assert!(w[0].0 < w[1].0, "tie not resolved to the smaller offset: {w:?}");
        }
    }
}
