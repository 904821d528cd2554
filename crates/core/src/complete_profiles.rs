//! Complete per-length matrix profiles — the paper's §8 future-work item:
//! *"extend VALMOD in order to efficiently compute a complete matrix profile
//! for each length in the input range"*.
//!
//! `ComputeSubMP` certifies only a *subset* of each length's profile (the
//! valid rows); [`complete_profiles`] is the driver's own length walk
//! (paper Algorithm 1) with one more step per certified length. The rows
//! `ComputeSubMP` left ⊥ are recomputed one by one through its refine step
//! when there are fewer than `ndp/p` of them — Alg. 4's own budget — and
//! otherwise the length takes the driver's fallback: one full harvesting
//! pass, seeded from the bounds the advance left when the motif was not
//! certified. The result is the exact profile of every length, usually far
//! below `ℓ_range` full STOMP runs of work — enabling the "more diverse
//! applications" the paper lists (per-length shapelet and discord
//! analysis).

use valmod_data::error::Result;
use valmod_mp::workspace::Workspace;
use valmod_mp::ProfiledSeries;
use valmod_obs::SharedRecorder;

use crate::profile::PartialProfile;
use crate::sub_mp::{refine_rows, SubMpResult};
use crate::valmod::{drive_lengths, LengthProfile, ValmodConfig};

/// Computes the **complete** matrix profile of every length in
/// `[config.l_min, config.l_max]`, exactly, sharing work across lengths
/// through the partial profiles, with `config.threads` workers (every count
/// gives the same bits). Returns one [`LengthProfile`] per length: every row
/// known, with its [`LengthMethod`](crate::LengthMethod) and row split.
pub fn complete_profiles(ps: &ProfiledSeries, config: &ValmodConfig) -> Result<Vec<LengthProfile>> {
    config.validate_for(ps.len())?;
    let mut out = Vec::with_capacity(config.l_max - config.l_min + 1);
    drive_lengths(ps, config, &SharedRecorder::noop(), true, |lp, _| out.push(lp))?;
    Ok(out)
}

/// The completion step of a certified length: refines every row `res`
/// left ⊥ ([`refine_rows`]) when there are fewer than `ndp/p` of them, and
/// returns whether the length is now complete. `false` leaves `res` and
/// `partials` untouched; the walk then takes the full pass.
pub(crate) fn refine_unknown(
    ps: &ProfiledSeries,
    config: &ValmodConfig,
    l: usize,
    partials: &mut [PartialProfile],
    res: &mut SubMpResult,
    ws: &mut Workspace,
) -> bool {
    let ndp = res.sub_mp.len();
    let unknown: Vec<usize> = (0..ndp).filter(|&j| res.sub_mp[j].is_nan()).collect();
    if !unknown.is_empty() && unknown.len() >= ndp / config.p {
        return false;
    }
    refine_rows(ps, partials, l, &config.policy, &unknown, res, ws);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute_mp::{compute_matrix_profile, MpWithProfiles};
    use crate::valmod::{advance_walk, LengthMethod};
    use valmod_data::datasets::{ecg_like, emg_like};
    use valmod_data::generators::random_walk;
    use valmod_data::rng::Xoshiro256;
    use valmod_mp::exclusion::ExclusionPolicy;
    use valmod_mp::stomp::stomp;

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|d| d.to_bits()).collect()
    }

    fn check_exact(series: &[f64], l_min: usize, l_max: usize, p: usize) -> Vec<LengthProfile> {
        let ps = ProfiledSeries::from_values(series).unwrap();
        let config = ValmodConfig::new(l_min, l_max).with_p(p);
        let profiles = complete_profiles(&ps, &config).unwrap();
        assert_eq!(profiles.len(), l_max - l_min + 1);
        for (prof, l) in profiles.iter().zip(l_min..) {
            assert_eq!(prof.l, l);
            assert_eq!(prof.known_entries, prof.mp.len(), "l={l}");
            let oracle = stomp(&ps, l, ExclusionPolicy::HALF).unwrap();
            assert_eq!(prof.mp.len(), oracle.len());
            for i in 0..prof.mp.len() {
                if prof.mp[i].is_infinite() || oracle.mp[i].is_infinite() {
                    assert_eq!(prof.mp[i].is_infinite(), oracle.mp[i].is_infinite());
                } else {
                    assert!(
                        (prof.mp[i] - oracle.mp[i]).abs() < 1e-6,
                        "l={l} row {i}: {} vs {}",
                        prof.mp[i],
                        oracle.mp[i]
                    );
                }
            }
        }
        profiles
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
        // EMG defeats the bound: lengths take the full pass, which must be
        // the driver's own harvesting pass at that length, bit for bit.
        let series = emg_like(400, 5);
        let profiles = check_exact(series.values(), 24, 30, 4);
        let ps = ProfiledSeries::from_values(series.values()).unwrap();
        let full: Vec<&LengthProfile> =
            profiles.iter().filter(|lp| lp.method == LengthMethod::Fallback).collect();
        assert!(!full.is_empty(), "no length took the full pass");
        for lp in full {
            let pass = compute_matrix_profile(&ps, lp.l, 4, ExclusionPolicy::HALF).unwrap();
            assert_eq!(bits(&lp.mp), bits(&pass.profile.mp), "l={}: mp", lp.l);
            assert_eq!(lp.ip, pass.profile.ip, "l={}: ip", lp.l);
        }
    }

    #[test]
    fn thread_count_does_not_change_complete_profiles() {
        for (series, l_min, l_max, p) in [
            (ecg_like(600, 5).values().to_vec(), 32, 44, 6),
            (emg_like(400, 5).values().to_vec(), 24, 30, 4),
        ] {
            let ps = ProfiledSeries::from_values(&series).unwrap();
            let run = |threads| {
                let config = ValmodConfig::new(l_min, l_max).with_p(p).with_threads(threads);
                complete_profiles(&ps, &config).unwrap()
            };
            let one = run(1);
            for threads in [2, 3] {
                for (a, b) in one.iter().zip(&run(threads)) {
                    assert_eq!(bits(&a.mp), bits(&b.mp), "threads {threads} l={}: mp", a.l);
                    assert_eq!(a.ip, b.ip, "threads {threads} l={}: ip", a.l);
                    assert_eq!(a.method, b.method, "threads {threads} l={}", a.l);
                }
            }
        }
    }

    #[test]
    fn invalid_configs_are_errors() {
        let ps = ProfiledSeries::from_values(&random_walk(200, 3)).unwrap();
        assert!(complete_profiles(&ps, &ValmodConfig::new(24, 16)).is_err());
        assert!(complete_profiles(&ps, &ValmodConfig::new(16, 24).with_p(0)).is_err());
    }

    /// Every heap rebuilt by offering its entries in a seeded random order:
    /// the same retained set in another internal layout.
    fn relayout(state: &MpWithProfiles, seed: u64) -> MpWithProfiles {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut out = state.clone();
        let rows = out.partials.len();
        for prof in &mut out.partials {
            let mut entries = prof.entries().to_vec();
            rng.shuffle(&mut entries);
            let mut rebuilt = PartialProfile::new(
                prof.owner,
                prof.anchor_l,
                prof.anchor_sigma,
                prof.capacity(),
                rows,
            );
            for e in entries {
                rebuilt.offer(e);
            }
            *prof = rebuilt;
        }
        out
    }

    /// The complete walk from an already harvested anchor `state`, one
    /// profile per length after the anchor.
    fn complete_from(
        ps: &ProfiledSeries,
        mut state: MpWithProfiles,
        l_max: usize,
        p: usize,
    ) -> Vec<LengthProfile> {
        let config = ValmodConfig::new(state.profile.l, l_max).with_p(p);
        let (mut ws, mut out) = (Workspace::new(), Vec::new());
        let noop = SharedRecorder::noop();
        advance_walk(ps, &config, &noop, &mut ws, &mut state, true, &mut |lp, _| out.push(lp))
            .unwrap();
        out
    }

    #[test]
    fn heap_layout_does_not_change_complete_profiles() {
        // Rows owned inside the second flat block keep neighbours 0..5 of
        // the first (every key is 0 for a flat owner). One step longer,
        // neighbours 0..4 are still flat — a four-way tie at distance 0 below
        // the root, certified because the owner's σ is 0 — so a tie-break
        // by heap position would show. The second block covers most of the
        // series, so on ℓ 17–20 fewer than ndp/p rows are ⊥: the walk
        // refines them and emits the certified ties.
        let mut series = random_walk(320, 83);
        for i in (0..20).chain(30..310) {
            series[i] = if i < 20 { 2.0 } else { -1.0 };
        }
        let ps = ProfiledSeries::from_values(&series).unwrap();
        let state = compute_matrix_profile(&ps, 16, 5, ExclusionPolicy::HALF).unwrap();
        let a = complete_from(&ps, state.clone(), 24, 5);
        let split = |s: &[LengthProfile]| {
            s.iter().map(|c| (c.method, c.valid_rows, c.recomputed_rows)).collect::<Vec<_>>()
        };
        assert!(a[..4].iter().all(|lp| lp.method == LengthMethod::SubMpRefined));
        for seed in 1..=4 {
            let b = complete_from(&ps, relayout(&state, seed), 24, 5);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(bits(&x.mp), bits(&y.mp), "seed {seed} l={}: mp", x.l);
                assert_eq!(x.ip, y.ip, "seed {seed} l={}: ip", x.l);
            }
            assert_eq!(split(&a), split(&b), "seed {seed}");
        }
    }

    #[test]
    fn certification_saves_work_on_easy_data() {
        let ps = ProfiledSeries::from_values(ecg_like(1200, 9).values()).unwrap();
        let profiles = complete_profiles(&ps, &ValmodConfig::new(48, 56).with_p(8)).unwrap();
        let (mut certified, mut recomputed) = (0, 0);
        for lp in &profiles[1..] {
            match lp.method {
                LengthMethod::SubMp | LengthMethod::SubMpRefined => {
                    certified += lp.valid_rows;
                    recomputed += lp.recomputed_rows;
                }
                LengthMethod::FullProfile | LengthMethod::Fallback => recomputed += lp.mp.len(),
            }
        }
        assert!(
            certified > recomputed / 4,
            "expected meaningful certification on ECG (certified {certified}, recomputed {recomputed})"
        );
    }
}
