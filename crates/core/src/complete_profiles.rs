//! Complete per-length matrix profiles — the paper's §8 future-work item:
//! *"extend VALMOD in order to efficiently compute a complete matrix profile
//! for each length in the input range"*.
//!
//! `ComputeSubMP` certifies only a *subset* of each length's profile (the
//! valid rows); this module fills in the rest. For every length after the
//! anchor, each row is resolved either from its partial profile (when the
//! `minDist ≤ maxLB` certificate holds — free) or by one MASS pass (an
//! `O(n log n)` recomputation that also re-anchors the row's partial
//! profile, tightening future lengths). The result is byte-for-byte the
//! STOMP profile of every length, usually far below `ℓ_range` full STOMP
//! runs of work — enabling the "more diverse applications" the paper lists
//! (per-length shapelet and discord analysis).

use valmod_data::error::Result;
use valmod_mp::distance_profile::{dp_from_qt_into, profile_min};
use valmod_mp::exclusion::ExclusionPolicy;
use valmod_mp::matrix_profile::MatrixProfile;
use valmod_mp::workspace::Workspace;
use valmod_mp::ProfiledSeries;

use crate::compute_mp::{compute_matrix_profile, MpWithProfiles};
use crate::harvest::harvest_row;
use crate::sub_mp::LengthTable;

/// Per-length cost accounting for [`complete_profiles`].
#[derive(Debug, Clone, Copy)]
pub struct CompletionStats {
    /// Subsequence length.
    pub l: usize,
    /// Rows served by the lower-bound certificate (no recomputation).
    pub certified_rows: usize,
    /// Rows recomputed with a MASS pass.
    pub recomputed_rows: usize,
}

/// Computes the **complete** matrix profile of every length in
/// `[l_min, l_max]`, exactly, sharing work across lengths through the
/// partial profiles. Returns one [`MatrixProfile`] per length plus the
/// per-length cost split.
pub fn complete_profiles(
    ps: &ProfiledSeries,
    l_min: usize,
    l_max: usize,
    p: usize,
    policy: ExclusionPolicy,
) -> Result<(Vec<MatrixProfile>, Vec<CompletionStats>)> {
    ps.require_pairs(l_max)?;
    let state = compute_matrix_profile(ps, l_min, p, policy)?;
    Ok(complete_from(ps, state, l_max, policy))
}

/// The length walk of [`complete_profiles`] from an already harvested
/// anchor `state` up to `l_max`. Each row needs only its minimum and
/// `maxLB`, so it advances lazily; every recomputed row re-seeds its dot
/// products through one [`Workspace`]'s FFT plan cache.
fn complete_from(
    ps: &ProfiledSeries,
    mut state: MpWithProfiles,
    l_max: usize,
    policy: ExclusionPolicy,
) -> (Vec<MatrixProfile>, Vec<CompletionStats>) {
    let l_min = state.profile.l;
    let mut profiles = Vec::with_capacity(l_max - l_min + 1);
    let mut stats = Vec::with_capacity(l_max - l_min + 1);
    stats.push(CompletionStats {
        l: l_min,
        certified_rows: 0,
        recomputed_rows: state.profile.len(),
    });
    profiles.push(state.profile.clone());

    let (mut dp, mut means, mut stds) = (Vec::new(), Vec::new(), Vec::new());
    let mut ws = Workspace::new();
    for l in (l_min + 1)..=l_max {
        let ndp = ps.num_subsequences(l);
        ps.fill_stats(l, ndp, &mut means, &mut stds);
        let table = LengthTable::new(ps, l, &policy, &means, &stds);
        let mut mp = vec![f64::INFINITY; ndp];
        let mut ip = vec![usize::MAX; ndp];
        let mut certified = 0usize;
        let mut recomputed = 0usize;
        for j in 0..ndp {
            let prof = &mut state.partials[j];
            let row = table.advance_row(j, prof);
            if row.min_dist <= row.max_lb {
                // Certified: the stored minimum is the row's true minimum.
                mp[j] = row.min_dist;
                ip[j] = row.ind;
                certified += 1;
            } else {
                // Recompute this row and re-anchor its partial profile.
                let qt = ws.self_qt(ps, j, l);
                dp_from_qt_into(ps, qt, j, l, &policy, &mut dp);
                prof.reanchor(l, table.sigma(j));
                harvest_row(ps, prof, &dp, qt, j, l);
                if let Some((arg, d)) = profile_min(&dp) {
                    mp[j] = d;
                    ip[j] = arg;
                }
                recomputed += 1;
            }
        }
        profiles.push(MatrixProfile { l, mp, ip, exclusion_radius: policy.radius(l) });
        stats.push(CompletionStats { l, certified_rows: certified, recomputed_rows: recomputed });
    }
    (profiles, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::PartialProfile;
    use valmod_data::datasets::{ecg_like, emg_like};
    use valmod_data::generators::random_walk;
    use valmod_data::rng::Xoshiro256;
    use valmod_mp::stomp::stomp;

    fn check_exact(series: &[f64], l_min: usize, l_max: usize, p: usize) {
        let ps = ProfiledSeries::from_values(series).unwrap();
        let (profiles, stats) =
            complete_profiles(&ps, l_min, l_max, p, ExclusionPolicy::HALF).unwrap();
        assert_eq!(profiles.len(), l_max - l_min + 1);
        assert_eq!(stats.len(), profiles.len());
        for prof in &profiles {
            let oracle = stomp(&ps, prof.l, ExclusionPolicy::HALF).unwrap();
            assert_eq!(prof.len(), oracle.len());
            for i in 0..prof.len() {
                if prof.mp[i].is_infinite() || oracle.mp[i].is_infinite() {
                    assert_eq!(prof.mp[i].is_infinite(), oracle.mp[i].is_infinite());
                } else {
                    assert!(
                        (prof.mp[i] - oracle.mp[i]).abs() < 1e-6,
                        "l={} row {}: {} vs {}",
                        prof.l,
                        i,
                        prof.mp[i],
                        oracle.mp[i]
                    );
                }
            }
        }
    }

    #[test]
    fn every_length_profile_matches_stomp_random_walk() {
        check_exact(&random_walk(260, 71), 16, 24, 4);
    }

    #[test]
    fn every_length_profile_matches_stomp_ecg() {
        check_exact(ecg_like(600, 5).values(), 32, 40, 6);
    }

    #[test]
    fn every_length_profile_matches_stomp_emg_worst_case() {
        // EMG defeats the bound; everything is recomputed — still exact.
        check_exact(emg_like(400, 5).values(), 24, 30, 4);
    }

    /// Every heap rebuilt by offering its entries in a seeded random order:
    /// the same retained set in another internal layout.
    fn relayout(state: &MpWithProfiles, seed: u64) -> MpWithProfiles {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut out = state.clone();
        for prof in &mut out.partials {
            let mut entries = prof.entries().to_vec();
            rng.shuffle(&mut entries);
            let mut rebuilt =
                PartialProfile::new(prof.owner, prof.anchor_l, prof.anchor_sigma, prof.capacity());
            for e in entries {
                rebuilt.offer(e);
            }
            *prof = rebuilt;
        }
        out
    }

    #[test]
    fn heap_layout_does_not_change_complete_profiles() {
        // Rows owned inside the second flat block keep neighbours 0..5 of
        // the first (every key is 0 for a flat owner). One step longer,
        // neighbours 0..4 are still flat — a four-way tie at distance 0 below
        // the root, certified because the owner's σ is 0 — so a tie-break
        // by heap position would show.
        let mut series = random_walk(320, 83);
        for i in (0..20).chain(200..260) {
            series[i] = if i < 20 { 2.0 } else { -1.0 };
        }
        let ps = ProfiledSeries::from_values(&series).unwrap();
        let policy = ExclusionPolicy::HALF;
        let state = compute_matrix_profile(&ps, 16, 5, policy).unwrap();
        let (a, sa) = complete_from(&ps, state.clone(), 24, policy);
        let bits = |v: &[f64]| v.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
        let split = |s: &[CompletionStats]| {
            s.iter().map(|c| (c.certified_rows, c.recomputed_rows)).collect::<Vec<_>>()
        };
        for seed in 1..=4 {
            let (b, sb) = complete_from(&ps, relayout(&state, seed), 24, policy);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(bits(&x.mp), bits(&y.mp), "seed {seed} l={}: mp", x.l);
                assert_eq!(x.ip, y.ip, "seed {seed} l={}: ip", x.l);
            }
            assert_eq!(split(&sa), split(&sb), "seed {seed}");
        }
    }

    #[test]
    fn certification_saves_work_on_easy_data() {
        let ps = ProfiledSeries::from_values(ecg_like(1200, 9).values()).unwrap();
        let (_, stats) = complete_profiles(&ps, 48, 56, 8, ExclusionPolicy::HALF).unwrap();
        let certified: usize = stats[1..].iter().map(|s| s.certified_rows).sum();
        let recomputed: usize = stats[1..].iter().map(|s| s.recomputed_rows).sum();
        assert!(
            certified > recomputed / 4,
            "expected meaningful certification on ECG (certified {certified}, recomputed {recomputed})"
        );
    }
}
