//! STOMP (Zhu et al., ICDM 2016; paper Algorithm 3 without the lower-bound
//! harvesting): the `O(n²)` matrix-profile computation with O(1) dot-product
//! row updates.
//!
//! [`stomp`] is the public entry point; since the diagonal-blocked rewrite
//! it delegates to [`crate::diagonal::stomp_diagonal_ws`], which is
//! bit-identical to the row traversal here but cache-friendly. The
//! row-by-row machinery stays as [`StompDriver`] / [`stomp_row`]: it is the
//! differential oracle for the diagonal kernel (`valmod-check`'s
//! `diagonal-vs-row`) and the row streamer `valmod-core`'s instrumentation
//! probe builds on.

use valmod_data::error::Result;

use crate::context::ProfiledSeries;
use crate::distance_profile::{dp_from_qt_into, profile_min};
use crate::exclusion::ExclusionPolicy;
use crate::matrix_profile::MatrixProfile;

/// Streams the rows of the all-pairs distance matrix: row `i` is the
/// distance profile of `T_{i,ℓ}`, produced in `O(n)` after an `O(nℓ)`
/// directly-summed first row.
#[derive(Debug)]
pub struct StompDriver<'a> {
    ps: &'a ProfiledSeries,
    l: usize,
    policy: ExclusionPolicy,
    ndp: usize,
    /// `QT[j] = ⟨T_{row,ℓ}, T_{j,ℓ}⟩` for the *current* row (centred domain).
    qt: Vec<f64>,
    /// First-row dot products `⟨T_{0,ℓ}, T_{j,ℓ}⟩`, which by symmetry seed
    /// `QT[0]` of every later row.
    qt_first: Vec<f64>,
    next_row: usize,
}

impl<'a> StompDriver<'a> {
    /// Prepares a driver; computes the first-row dot products by direct
    /// summation — the same prefix-stable seeds the diagonal kernel uses
    /// ([`crate::distance_profile::seed_qt`]), so the two kernels keep
    /// chaining every cell from bit-identical starting points.
    pub fn new(ps: &'a ProfiledSeries, l: usize, policy: ExclusionPolicy) -> Result<Self> {
        let ndp = ps.require_pairs(l)?;
        let mut qt_first = Vec::new();
        crate::distance_profile::seed_qt_row_into(ps.centered(), l, ndp, &mut qt_first);
        Ok(StompDriver { ps, l, policy, ndp, qt: qt_first.clone(), qt_first, next_row: 0 })
    }

    /// Number of rows (= number of subsequences).
    #[inline]
    pub fn ndp(&self) -> usize {
        self.ndp
    }

    /// Subsequence length.
    #[inline]
    pub fn l(&self) -> usize {
        self.l
    }

    /// The exclusion policy in use.
    #[inline]
    pub fn policy(&self) -> &ExclusionPolicy {
        &self.policy
    }

    /// Dot products of the row most recently produced by
    /// [`StompDriver::next_row`] (centred domain).
    #[inline]
    pub fn qt(&self) -> &[f64] {
        &self.qt
    }

    /// Advances to the next row, filling `dp_out` with its distance profile
    /// (`+∞` inside the exclusion zone). Returns the row index, or `None`
    /// after the last row.
    pub fn next_row(&mut self, dp_out: &mut Vec<f64>) -> Option<usize> {
        if self.next_row >= self.ndp {
            return None;
        }
        let i = self.next_row;
        if i > 0 {
            // Paper Alg. 3 lines 10–12: update QT in place, descending j.
            let t = self.ps.centered();
            let l = self.l;
            for j in (1..self.ndp).rev() {
                self.qt[j] = self.qt[j - 1] - t[i - 1] * t[j - 1] + t[i + l - 1] * t[j + l - 1];
            }
            // Symmetry: QT_i[0] = ⟨T_0, T_i⟩ = qt_first[i].
            self.qt[0] = self.qt_first[i];
        }
        dp_from_qt_into(self.ps, &self.qt, i, self.l, &self.policy, dp_out);
        self.next_row += 1;
        Some(i)
    }
}

/// Computes the full matrix profile with STOMP (`O(n²)` time, `O(n)` space).
///
/// Runs the diagonal-blocked kernel ([`crate::diagonal`]) with a fresh
/// [`crate::workspace::Workspace`]; callers computing many profiles should
/// hold a workspace and use
/// [`stomp_diagonal_ws`](crate::diagonal::stomp_diagonal_ws) directly to
/// reuse FFT plans and buffers. Output is bit-identical to [`stomp_row`].
pub fn stomp(ps: &ProfiledSeries, l: usize, policy: ExclusionPolicy) -> Result<MatrixProfile> {
    let mut ws = crate::workspace::Workspace::new();
    crate::diagonal::stomp_diagonal_ws(ps, l, policy, &mut ws)
}

/// The row-by-row STOMP kernel: the pre-rewrite traversal, kept as the
/// differential oracle for the diagonal-blocked kernel.
pub fn stomp_row(ps: &ProfiledSeries, l: usize, policy: ExclusionPolicy) -> Result<MatrixProfile> {
    let mut driver = StompDriver::new(ps, l, policy)?;
    let ndp = driver.ndp();
    let mut mp = vec![f64::INFINITY; ndp];
    let mut ip = vec![usize::MAX; ndp];
    let mut dp = Vec::with_capacity(ndp);
    while let Some(i) = driver.next_row(&mut dp) {
        if let Some((j, d)) = profile_min(&dp) {
            mp[i] = d;
            ip[i] = j;
        }
    }
    Ok(MatrixProfile { l, mp, ip, exclusion_radius: policy.radius(l) })
}

/// Naive `O(n²ℓ)` matrix profile — the oracle for STOMP and STAMP.
pub fn matrix_profile_naive(
    ps: &ProfiledSeries,
    l: usize,
    policy: ExclusionPolicy,
) -> Result<MatrixProfile> {
    let ndp = ps.require_pairs(l)?;
    let mut mp = vec![f64::INFINITY; ndp];
    let mut ip = vec![usize::MAX; ndp];
    for i in 0..ndp {
        let dp = crate::distance_profile::self_distance_profile_naive(ps, i, l, &policy);
        if let Some((j, d)) = profile_min(&dp) {
            mp[i] = d;
            ip[i] = j;
        }
    }
    Ok(MatrixProfile { l, mp, ip, exclusion_radius: policy.radius(l) })
}

#[cfg(test)]
mod tests {
    use super::*;
    use valmod_data::generators::{plant_motif, random_walk};

    #[test]
    fn stomp_matches_naive_oracle() {
        let ps = ProfiledSeries::from_values(&random_walk(400, 7)).unwrap();
        for &l in &[8usize, 16, 50] {
            let fast = stomp(&ps, l, ExclusionPolicy::HALF).unwrap();
            let slow = matrix_profile_naive(&ps, l, ExclusionPolicy::HALF).unwrap();
            assert_eq!(fast.len(), slow.len());
            for i in 0..fast.len() {
                assert!(
                    (fast.mp[i] - slow.mp[i]).abs() < 1e-6,
                    "l={l} i={i}: {} vs {}",
                    fast.mp[i],
                    slow.mp[i]
                );
                // Nearest-neighbour index can legitimately differ on exact
                // ties; distances must agree.
            }
        }
    }

    #[test]
    fn stomp_finds_planted_motif() {
        let (series, planted) = plant_motif(3000, 64, 2, 0.001, 21);
        let ps = ProfiledSeries::from_values(&series).unwrap();
        let profile = stomp(&ps, 64, ExclusionPolicy::HALF).unwrap();
        let (a, b, d) = profile.motif_pair().unwrap();
        let mut expect = planted.offsets.clone();
        expect.sort_unstable();
        let mut got = [a, b];
        got.sort_unstable();
        // Allow a few samples of slack: the background may align slightly
        // better a step or two away.
        assert!(got[0].abs_diff(expect[0]) <= 2, "{got:?} vs {expect:?}");
        assert!(got[1].abs_diff(expect[1]) <= 2, "{got:?} vs {expect:?}");
        assert!(d < 1.0, "planted pair distance {d}");
    }

    #[test]
    fn driver_rows_match_one_shot_profiles() {
        let ps = ProfiledSeries::from_values(&random_walk(200, 3)).unwrap();
        let policy = ExclusionPolicy::HALF;
        let mut driver = StompDriver::new(&ps, 12, policy).unwrap();
        let mut dp = Vec::new();
        while let Some(i) = driver.next_row(&mut dp) {
            let direct = crate::distance_profile::self_distance_profile(&ps, i, 12, &policy);
            for (j, (a, b)) in dp.iter().zip(&direct).enumerate() {
                if a.is_finite() || b.is_finite() {
                    assert!((a - b).abs() < 1e-6, "row {i} col {j}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn driver_qt_is_exact_dot_product() {
        let ps = ProfiledSeries::from_values(&random_walk(150, 9)).unwrap();
        let mut driver = StompDriver::new(&ps, 10, ExclusionPolicy::HALF).unwrap();
        let mut dp = Vec::new();
        let t = ps.centered().to_vec();
        while let Some(i) = driver.next_row(&mut dp) {
            for j in (0..driver.ndp()).step_by(37) {
                let direct: f64 = t[i..i + 10].iter().zip(&t[j..j + 10]).map(|(a, b)| a * b).sum();
                assert!(
                    (driver.qt()[j] - direct).abs() < 1e-6,
                    "row {i} col {j}: {} vs {direct}",
                    driver.qt()[j]
                );
            }
        }
    }

    #[test]
    fn profile_is_symmetric_in_distance_terms() {
        // mp[i] ≤ d(i, j) for every valid j — spot-check via the naive DP.
        let ps = ProfiledSeries::from_values(&random_walk(250, 5)).unwrap();
        let profile = stomp(&ps, 20, ExclusionPolicy::HALF).unwrap();
        for i in (0..profile.len()).step_by(17) {
            let dp = crate::distance_profile::self_distance_profile_naive(
                &ps,
                i,
                20,
                &ExclusionPolicy::HALF,
            );
            let true_min = dp.iter().cloned().fold(f64::INFINITY, f64::min);
            assert!((profile.mp[i] - true_min).abs() < 1e-6);
        }
    }

    #[test]
    fn too_short_series_is_rejected() {
        let ps = ProfiledSeries::from_values(&[1.0, 2.0, 3.0]).unwrap();
        assert!(stomp(&ps, 3, ExclusionPolicy::HALF).is_err());
    }

    #[test]
    fn fully_excluded_profile_is_infinite() {
        // Series barely longer than ℓ: with radius ℓ/2 every pair may be a
        // trivial match.
        let ps = ProfiledSeries::from_values(&random_walk(12, 2)).unwrap();
        let profile = stomp(&ps, 10, ExclusionPolicy::HALF).unwrap();
        assert!(profile.mp.iter().all(|d| d.is_infinite()));
        assert!(profile.motif_pair().is_none());
    }
}
