//! Registry-backed probes behind the paper's diagnostic figures.
//!
//! * Fig. 9 — the pruning margin `maxLB − minDist` per partial distance
//!   profile (positive ⇒ the profile was resolvable without recomputation),
//!   recorded by the production advance pass into `core.lb.margin`.
//! * Fig. 10 — the average tightness of the lower bound (TLB) per profile,
//!   recorded into `core.lb.tlb` by [`lb_probe`] alone: the production
//!   advance skips the distances its Eq. 2 bound rules out, so the probe
//!   takes the tightness over every valid entry after its recorded advance.
//! * Fig. 11 — the distribution of pairwise subsequence distances
//!   (`core.dist.distribution`).
//!
//! The margins come from attaching a [`Registry`] to the same
//! [`compute_sub_mp_threaded_with`] pass that VALMOD itself runs, so the
//! figures measure exactly what the algorithm does. The tightness reads
//! the dot products that pass advanced.

use valmod_data::error::Result;
use valmod_mp::exclusion::ExclusionPolicy;
use valmod_mp::stomp::StompDriver;
use valmod_mp::ProfiledSeries;
use valmod_obs::{buckets, HistogramSnapshot, Recorder, Registry, SharedRecorder, Snapshot};

use crate::compute_mp::compute_matrix_profile;
use crate::lb::{sigma_ratio, tightness};
use crate::profile::PartialProfile;
use crate::sub_mp::{compute_sub_mp, compute_sub_mp_threaded_with, LengthTable};

/// Registers the histogram a recorded VALMOD run observes with a layout
/// suited to its value range (the registry's default buckets are
/// latency-shaped): `core.lb.margin`, normalised margins in `[-1, 1]`,
/// bucket width 1/8, with an exact bucket edge at 0 so "positive margin"
/// is a bucket boundary, not an interpolation.
///
/// Call this on any registry that will observe a VALMOD run *before* the
/// run records into it (first registration fixes the layout).
pub fn register_probe_histograms(registry: &Registry) {
    registry.histogram_with("core.lb.margin", &buckets::linear(-1.0, 0.125, 17));
}

/// Harvests partial profiles at `l_min`, advances them length by length
/// (without any fallback recomputation), and records the final advance step
/// to `target_l` into a fresh registry. The returned snapshot holds the
/// Fig. 9 margins (`core.lb.margin`, normalised by the `2√ℓ` distance
/// range), the `core.lb.valid_rows`/`core.lb.nonvalid_rows` split and the
/// `core.submp.*` work counters of that step, and the Fig. 10 tightness
/// (`core.lb.tlb`, tightness in `[0, 1]` with bucket width 1/16): per row,
/// the mean of `tightness(LB, dist)` over every entry valid at `target_l`,
/// summed in the advance's scan order. A row the step's last-chance pass
/// re-anchored is measured on the advance that pass replaced.
///
/// `target_l` must be greater than `l_min`: the margin is a property of an
/// *advance*, which the anchor length does not perform.
pub fn lb_probe(
    ps: &ProfiledSeries,
    l_min: usize,
    target_l: usize,
    p: usize,
    policy: ExclusionPolicy,
) -> Result<Snapshot> {
    assert!(target_l > l_min, "the probe needs at least one advance step");
    let mut state = compute_matrix_profile(ps, l_min, p, policy)?;
    for l in (l_min + 1)..target_l {
        // Advance entries silently; ignore the motif outcome — pure probe.
        let _ = compute_sub_mp(ps, &mut state.partials, l, policy);
    }
    let registry = Registry::new();
    register_probe_histograms(&registry);
    registry.histogram_with("core.lb.tlb", &buckets::linear(0.0, 0.0625, 17));
    let recorder = SharedRecorder::from(registry.clone());
    let before = state.partials.clone();
    let _ = compute_sub_mp_threaded_with(ps, &mut state.partials, target_l, policy, 1, &recorder);

    let ndp = ps.num_subsequences(target_l);
    let (mut means, mut stds) = (Vec::new(), Vec::new());
    ps.fill_stats(target_l, ndp, &mut means, &mut stds);
    let table = LengthTable::new(ps, target_l, &policy, &means, &stds);
    let tlbs: Vec<f64> = (state.partials[..ndp].iter().zip(&before).enumerate())
        .map(|(j, (prof, prior))| {
            if prof.anchor_l != target_l {
                return mean_tightness(ps, prof, table.sigma(j));
            }
            let mut replaced = prior.clone();
            table.advance_row(j, &mut replaced);
            mean_tightness(ps, &replaced, table.sigma(j))
        })
        .collect();
    recorder.observe_many("core.lb.tlb", &tlbs);
    Ok(registry.snapshot())
}

/// The mean Eq. 2 tightness over `prof`'s live entries, just advanced to
/// their current length where the owner's σ is `sigma_new`, in the scan
/// order of [`LengthTable::advance_row`] (0 for a row with none).
fn mean_tightness(ps: &ProfiledSeries, prof: &PartialProfile, sigma_new: f64) -> f64 {
    let ratio = sigma_ratio(prof.anchor_sigma, sigma_new);
    let (mut sum, mut n) = (0.0f64, 0usize);
    for e in prof.entries().iter().rev().filter(|e| e.is_live()) {
        sum += tightness(e.lb_base() * ratio, prof.entry_dist(ps, e));
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Computes the pairwise-distance histogram at length `l` over every
/// `row_stride`-th distance profile (Fig. 11). The histogram has `bins`
/// equal-width buckets spanning `[0, 2√ℓ]` (the z-normalised distance
/// range) and is registered as `core.dist.distribution`; sampling
/// `row_stride > 1` keeps large series tractable while preserving the
/// distribution's shape.
pub fn distance_distribution(
    ps: &ProfiledSeries,
    l: usize,
    bins: usize,
    row_stride: usize,
    policy: ExclusionPolicy,
) -> Result<HistogramSnapshot> {
    assert!(bins > 0 && row_stride > 0);
    // Maximum possible z-normalised distance is sqrt(4ℓ) = 2·sqrt(ℓ).
    let max = 2.0 * (l as f64).sqrt();
    let width = max / bins as f64;
    let registry = Registry::new();
    let hist =
        registry.histogram_with("core.dist.distribution", &buckets::linear(width, width, bins));
    let mut driver = StompDriver::new(ps, l, policy)?;
    let mut dp = Vec::new();
    while let Some(row) = driver.next_row(&mut dp) {
        if row % row_stride != 0 {
            continue;
        }
        for &d in dp.iter() {
            if d.is_finite() {
                hist.record(d);
            }
        }
    }
    let snapshot = registry.snapshot();
    Ok(snapshot.histogram("core.dist.distribution").expect("just registered").clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use valmod_data::datasets::{ecg_like, emg_like};
    use valmod_data::generators::random_walk;

    #[test]
    fn probes_cover_every_profile() {
        let ps = ProfiledSeries::from_values(&random_walk(300, 55)).unwrap();
        let snap = lb_probe(&ps, 16, 24, 5, ExclusionPolicy::HALF).unwrap();
        let rows = (300 - 24 + 1) as u64;
        let margin = snap.histogram("core.lb.margin").unwrap();
        let tlb = snap.histogram("core.lb.tlb").unwrap();
        assert_eq!(margin.count, rows);
        assert_eq!(tlb.count, rows);
        // Tightness is a ratio in [0, 1]: nothing above the last bucket.
        assert_eq!(tlb.fraction_above(1.0), 0.0);
        // Every row was classified exactly once in the probed step.
        let valid = snap.counter("core.lb.valid_rows").unwrap_or(0);
        let nonvalid = snap.counter("core.lb.nonvalid_rows").unwrap_or(0);
        assert_eq!(valid + nonvalid, rows);
    }

    #[test]
    fn probe_tightness_follows_the_per_entry_formula() {
        use crate::lb::lb_scale;
        use valmod_data::generators::sine_mixture;
        use valmod_mp::distance::zdist_naive;
        let policy = ExclusionPolicy::HALF;
        let periodic = sine_mixture(400, &[(0.02, 1.0), (0.05, 0.4)], 0.05, 2);
        let mut refined = 0;
        // The periodic steps reach the last-chance refinement, after three
        // advances (sorted rows) and after one.
        for (series, l_min, target_l, p) in [
            (random_walk(300, 63), 16, 21, 5),
            (periodic.clone(), 22, 25, 2),
            (periodic, 26, 27, 2),
        ] {
            let ps = ProfiledSeries::from_values(&series).unwrap();
            let snap = lb_probe(&ps, l_min, target_l, p, policy).unwrap();
            refined += snap.counter("core.lb.refined_rows").unwrap_or(0);
            // The reference: the same silent walk, then each row's mean
            // tightness over the entries valid at `target_l`, with the
            // bound scaled by `lb_scale` and the distance taken naively.
            let mut state = compute_matrix_profile(&ps, l_min, p, policy).unwrap();
            for l in (l_min + 1)..target_l {
                let _ = compute_sub_mp(&ps, &mut state.partials, l, policy);
            }
            let (n, ndp) = (series.len(), ps.num_subsequences(target_l));
            let reference = Registry::new();
            let want = reference.histogram_with("tlb", &buckets::linear(0.0, 0.0625, 17));
            for (j, prof) in state.partials[..ndp].iter().enumerate() {
                let sigma_new = ps.std(j, target_l);
                let (mut sum, mut k) = (0.0, 0);
                for e in prof.entries().iter().filter(|e| e.is_live()) {
                    let i = e.neighbor();
                    if i + target_l > n || policy.is_trivial(j, i, target_l) {
                        continue;
                    }
                    let dist = zdist_naive(&series[j..j + target_l], &series[i..i + target_l]);
                    sum += tightness(lb_scale(e.lb_base(), prof.anchor_sigma, sigma_new), dist);
                    k += 1;
                }
                want.record(if k == 0 { 0.0 } else { sum / k as f64 });
            }
            let (got, want) = (snap.histogram("core.lb.tlb").unwrap(), want.snapshot());
            assert_eq!((got.count, &got.counts), (ndp as u64, &want.counts), "l={target_l}");
            assert!((got.sum - want.sum).abs() < 1e-9 * ndp as f64, "{} vs {}", got.sum, want.sum);
        }
        assert!(refined > 0, "no probed step reaches the last-chance refinement");
    }

    #[test]
    fn probe_histograms_use_the_registered_layouts() {
        let ps = ProfiledSeries::from_values(&random_walk(200, 57)).unwrap();
        let snap = lb_probe(&ps, 16, 17, 4, ExclusionPolicy::HALF).unwrap();
        let margin = snap.histogram("core.lb.margin").unwrap();
        // Exact 0.0 boundary: "positive margin" is a bucket edge.
        assert!(margin.bounds.contains(&0.0));
        assert_eq!(margin.bounds.first(), Some(&-1.0));
        assert_eq!(margin.bounds.last(), Some(&1.0));
        assert_eq!(snap.histogram("core.lb.tlb").unwrap().bounds.len(), 17);
    }

    #[test]
    fn ecg_like_prunes_where_emg_like_cannot() {
        // The §6.2 / Fig. 9 diagnosis: on ECG a sizeable fraction of
        // profiles keep a positive margin (maxLB − minDist > 0, the line-16
        // validity condition), while on EMG the margin is essentially never
        // positive — pruning fails and VALMOD degrades there.
        let n = 3000;
        let ecg = ProfiledSeries::from_values(ecg_like(n, 1).values()).unwrap();
        let emg = ProfiledSeries::from_values(emg_like(n, 1).values()).unwrap();
        let positive_margin_frac = |ps: &ProfiledSeries| {
            let snap = lb_probe(ps, 64, 128, 5, ExclusionPolicy::HALF).unwrap();
            snap.histogram("core.lb.margin").unwrap().fraction_above(0.0)
        };
        let (f_ecg, f_emg) = (positive_margin_frac(&ecg), positive_margin_frac(&emg));
        assert!(
            f_ecg > f_emg + 0.05,
            "expected ECG positive-margin fraction ({f_ecg:.3}) above EMG ({f_emg:.3})"
        );
    }

    #[test]
    fn histogram_accumulates_all_finite_distances() {
        let ps = ProfiledSeries::from_values(&random_walk(200, 59)).unwrap();
        let h = distance_distribution(&ps, 16, 20, 1, ExclusionPolicy::HALF).unwrap();
        // 20 requested bins plus the (empty) overflow bucket.
        assert_eq!(h.counts.len(), 21);
        assert_eq!(*h.counts.last().unwrap(), 0, "no distance can exceed 2·sqrt(ℓ)");
        assert!(h.count > 0);
        let freq_sum: f64 = h.frequencies().iter().sum();
        assert!((freq_sum - 1.0).abs() < 1e-9);
        assert!((h.bounds.last().unwrap() - 2.0 * 4.0).abs() < 1e-9);
    }

    #[test]
    fn striding_preserves_shape_roughly() {
        let ps = ProfiledSeries::from_values(&random_walk(400, 61)).unwrap();
        let full = distance_distribution(&ps, 16, 10, 1, ExclusionPolicy::HALF).unwrap();
        let strided = distance_distribution(&ps, 16, 10, 4, ExclusionPolicy::HALF).unwrap();
        let (ff, fs) = (full.frequencies(), strided.frequencies());
        let l1: f64 = ff.iter().zip(&fs).map(|(a, b)| (a - b).abs()).sum();
        assert!(l1 < 0.2, "strided histogram diverges too much: L1 = {l1}");
    }
}
