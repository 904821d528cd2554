//! STOMP adapted to a length range (the paper's §6.1 adaptation of the
//! single-length state of the art): run the full `O(n²)` profile once per
//! length. This is the comparator whose cost VALMOD's `ComputeSubMP`
//! replaces with a linear pass.

use valmod_data::error::Result;
use valmod_mp::exclusion::ExclusionPolicy;
use valmod_mp::matrix_profile::MatrixProfile;
use valmod_mp::motif::MotifPair;
use valmod_mp::parallel::stomp_parallel;
use valmod_mp::ProfiledSeries;

/// The motif pair of every length in `[l_min, l_max]`, each obtained by an
/// independent STOMP run with `threads` workers (1 = sequential, 0 = all
/// available cores; every count gives the same bits), so the baseline stays
/// comparable to VALMOD at matching thread counts.
pub fn stomp_range(
    ps: &ProfiledSeries,
    l_min: usize,
    l_max: usize,
    policy: ExclusionPolicy,
    threads: usize,
) -> Result<Vec<Option<MotifPair>>> {
    valmod_core::validate_length_range(ps.len(), l_min, l_max)?;
    (l_min..=l_max)
        .map(|l| {
            let profile = stomp_parallel(ps, l, policy, threads)?;
            Ok(profile.motif_pair().map(|(a, b, d)| MotifPair::new(a, b, l, d)))
        })
        .collect()
}

/// The whole STOMP profile of every length in `[l_min, l_max]`, one
/// independent run per length, for oracles that compare more than the
/// motif ([`stomp_range`] keeps only the motif pairs).
pub fn stomp_profiles(
    ps: &ProfiledSeries,
    l_min: usize,
    l_max: usize,
    policy: ExclusionPolicy,
    threads: usize,
) -> Result<Vec<MatrixProfile>> {
    valmod_core::validate_length_range(ps.len(), l_min, l_max)?;
    (l_min..=l_max).map(|l| stomp_parallel(ps, l, policy, threads)).collect()
}

/// Like [`stomp_range`] but aborts once `deadline` has elapsed, returning
/// what was computed so far and a truncation flag — the bench harness uses
/// this to reproduce the paper's "failed to finish within a reasonable
/// amount of time" entries without hanging the suite.
pub fn stomp_range_with_deadline(
    ps: &ProfiledSeries,
    l_min: usize,
    l_max: usize,
    policy: ExclusionPolicy,
    threads: usize,
    deadline: std::time::Duration,
) -> Result<(Vec<Option<MotifPair>>, bool)> {
    valmod_core::validate_length_range(ps.len(), l_min, l_max)?;
    let start = std::time::Instant::now();
    let mut out = Vec::with_capacity(l_max - l_min + 1);
    for l in l_min..=l_max {
        if start.elapsed() > deadline {
            return Ok((out, true));
        }
        let profile = stomp_parallel(ps, l, policy, threads)?;
        out.push(profile.motif_pair().map(|(a, b, d)| MotifPair::new(a, b, l, d)));
    }
    Ok((out, false))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force_range;
    use valmod_data::generators::random_walk;

    #[test]
    fn matches_brute_force_over_a_range() {
        let ps = ProfiledSeries::from_values(&random_walk(150, 7)).unwrap();
        let fast = stomp_range(&ps, 8, 14, ExclusionPolicy::HALF, 1).unwrap();
        let slow = brute_force_range(&ps, 8, 14, ExclusionPolicy::HALF).unwrap();
        for (f, s) in fast.iter().zip(&slow) {
            match (f, s) {
                (Some(f), Some(s)) => assert!((f.dist - s.dist).abs() < 1e-6),
                (None, None) => {}
                other => panic!("presence mismatch: {other:?}"),
            }
        }
    }

    #[test]
    fn profiles_hold_the_range_motifs() {
        let ps = ProfiledSeries::from_values(&random_walk(150, 7)).unwrap();
        let motifs = stomp_range(&ps, 8, 14, ExclusionPolicy::HALF, 1).unwrap();
        let profiles = stomp_profiles(&ps, 8, 14, ExclusionPolicy::HALF, 1).unwrap();
        assert_eq!(profiles.len(), motifs.len());
        for (prof, motif) in profiles.iter().zip(&motifs) {
            let from_profile = prof.motif_pair().map(|(a, b, d)| MotifPair::new(a, b, prof.l, d));
            assert_eq!(from_profile, *motif);
        }
        assert!(stomp_profiles(&ps, 14, 8, ExclusionPolicy::HALF, 1).is_err());
    }

    #[test]
    fn threaded_range_matches_sequential() {
        let ps = ProfiledSeries::from_values(&random_walk(200, 11)).unwrap();
        let seq = stomp_range(&ps, 10, 16, ExclusionPolicy::HALF, 1).unwrap();
        for threads in [2usize, 3, 7, 0] {
            let par = stomp_range(&ps, 10, 16, ExclusionPolicy::HALF, threads).unwrap();
            for (a, b) in seq.iter().zip(&par) {
                match (a, b) {
                    (Some(a), Some(b)) => {
                        assert!((a.dist - b.dist).abs() < 1e-7, "threads={threads}")
                    }
                    (None, None) => {}
                    other => panic!("threads={threads}: presence mismatch {other:?}"),
                }
            }
        }
    }

    #[test]
    fn deadline_truncates() {
        let ps = ProfiledSeries::from_values(&random_walk(2000, 9)).unwrap();
        let (out, truncated) = stomp_range_with_deadline(
            &ps,
            64,
            256,
            ExclusionPolicy::HALF,
            1,
            std::time::Duration::from_millis(1),
        )
        .unwrap();
        assert!(truncated);
        assert!(out.len() < 193);
    }
}
