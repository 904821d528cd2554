//! [`ProfiledSeries`]: a data series prepared for matrix-profile computation.
//!
//! All profile kernels work in the *centred* domain (series minus its global
//! mean). Z-normalised distances are invariant under that shift, while the
//! dot products and `QT/ℓ − μμ` cancellations in Eq. 3 become far better
//! conditioned (DESIGN.md §7).

use valmod_data::error::{DataError, Result};
use valmod_data::series::Series;
use valmod_data::stats::RollingStats;

/// A series packaged with its rolling statistics, centred by the global mean.
#[derive(Debug, Clone)]
pub struct ProfiledSeries {
    centered: Vec<f64>,
    stats: RollingStats,
}

impl ProfiledSeries {
    /// Prepares `series` for profile computation (O(n)).
    pub fn new(series: &Series) -> Self {
        let stats = RollingStats::new(series.values());
        let offset = stats.offset();
        let centered = series.values().iter().map(|&v| v - offset).collect();
        ProfiledSeries { centered, stats }
    }

    /// Builds directly from raw samples.
    pub fn from_values(values: &[f64]) -> Result<Self> {
        let series = Series::new(values.to_vec())?;
        Ok(ProfiledSeries::new(&series))
    }

    /// Prepares `values` centred by an explicit `offset` instead of the
    /// series' own mean.
    ///
    /// This is the frame a growing series must be profiled in: pinning the
    /// offset at its load-time value keeps the centred samples — and every
    /// dot product and statistic over the original prefix — bit-identical
    /// after an append, which is what makes incremental tail extension of
    /// cached profiles exact (see `valmod_mp::extend`).
    pub fn with_offset(values: &[f64], offset: f64) -> Result<Self> {
        let series = Series::new(values.to_vec())?;
        let stats = RollingStats::with_offset(series.values(), offset);
        let centered = series.values().iter().map(|&v| v - offset).collect();
        Ok(ProfiledSeries { centered, stats })
    }

    /// Number of samples.
    #[inline]
    pub fn len(&self) -> usize {
        self.centered.len()
    }

    /// Whether the series is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.centered.is_empty()
    }

    /// The centred samples (`x − global mean`); the domain every kernel
    /// computes dot products in.
    #[inline]
    pub fn centered(&self) -> &[f64] {
        &self.centered
    }

    /// The global mean that was subtracted.
    #[inline]
    pub fn offset(&self) -> f64 {
        self.stats.offset()
    }

    /// Rolling statistics over the original series.
    #[inline]
    pub fn stats(&self) -> &RollingStats {
        &self.stats
    }

    /// Centred mean `μ(T_{i,ℓ}) − offset` of a subsequence (the mean in the
    /// domain of [`ProfiledSeries::centered`]).
    #[inline]
    pub fn mean_c(&self, i: usize, l: usize) -> f64 {
        self.stats.centered_sum(i, l) / l as f64
    }

    /// Standard deviation of a subsequence (shift-invariant, so identical in
    /// raw and centred domains).
    #[inline]
    pub fn std(&self, i: usize, l: usize) -> f64 {
        self.stats.std_dev(i, l)
    }

    /// Fills the statistics table of length `l` over the first `rows`
    /// offsets: `means[i] = mean_c(i, l)` and `stds[i] = std(i, l)`,
    /// replacing both buffers' contents. One `O(rows)` pass that every
    /// kernel and advance then reads instead of re-deriving the statistics
    /// per pair.
    pub fn fill_stats(&self, l: usize, rows: usize, means: &mut Vec<f64>, stds: &mut Vec<f64>) {
        means.clear();
        means.extend((0..rows).map(|i| self.mean_c(i, l)));
        stds.clear();
        stds.extend((0..rows).map(|i| self.std(i, l)));
    }

    /// Number of subsequences of length `l`.
    #[inline]
    pub fn num_subsequences(&self, l: usize) -> usize {
        if l == 0 || self.centered.len() < l {
            0
        } else {
            self.centered.len() - l + 1
        }
    }

    /// Validates that at least two non-overlapping subsequences of length `l`
    /// exist, returning the subsequence count.
    pub fn require_pairs(&self, l: usize) -> Result<usize> {
        if l == 0 {
            return Err(DataError::InvalidParameter("subsequence length must be positive".into()));
        }
        let ndp = self.num_subsequences(l);
        if ndp < 2 {
            return Err(DataError::TooShort { len: self.centered.len(), required: l + 1 });
        }
        Ok(ndp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn centering_preserves_std_and_shifts_mean() {
        let series = Series::new(vec![10.0, 12.0, 14.0, 16.0]).unwrap();
        let ps = ProfiledSeries::new(&series);
        assert!((ps.offset() - 13.0).abs() < 1e-12);
        assert!((ps.mean_c(0, 2) - (11.0 - 13.0)).abs() < 1e-12);
        assert!((ps.std(0, 2) - 1.0).abs() < 1e-12);
        assert!((ps.centered()[0] - (-3.0)).abs() < 1e-12);
    }

    #[test]
    fn require_pairs_validates() {
        let ps = ProfiledSeries::from_values(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(ps.require_pairs(3).unwrap(), 2);
        assert!(ps.require_pairs(4).is_err());
        assert!(ps.require_pairs(0).is_err());
    }

    #[test]
    fn from_values_rejects_nan() {
        assert!(ProfiledSeries::from_values(&[1.0, f64::NAN]).is_err());
        assert!(ProfiledSeries::with_offset(&[1.0, f64::NAN], 0.0).is_err());
    }

    #[test]
    fn pinned_offset_keeps_the_centred_prefix_stable() {
        let values: Vec<f64> = (0..120).map(|i| (i as f64 * 0.31).cos() * 3.0 + 1.5).collect();
        let base = ProfiledSeries::from_values(&values[..80]).unwrap();
        let grown = ProfiledSeries::with_offset(&values, base.offset()).unwrap();
        assert_eq!(grown.len(), 120);
        for i in 0..80 {
            assert_eq!(base.centered()[i].to_bits(), grown.centered()[i].to_bits(), "sample {i}");
        }
        for &(i, l) in &[(0usize, 8usize), (30, 16), (60, 20)] {
            assert_eq!(base.mean_c(i, l).to_bits(), grown.mean_c(i, l).to_bits());
            assert_eq!(base.std(i, l).to_bits(), grown.std(i, l).to_bits());
        }
    }

    #[test]
    fn fill_stats_matches_the_accessors_bit_for_bit() {
        let values: Vec<f64> =
            (0..200).map(|i| (i as f64 * 0.17).sin() * 2.0 + i as f64 * 0.01).collect();
        let ps = ProfiledSeries::from_values(&values).unwrap();
        let (mut means, mut stds) = (vec![7.0; 3], Vec::new());
        for l in [8usize, 33, 200] {
            let rows = ps.num_subsequences(l);
            ps.fill_stats(l, rows, &mut means, &mut stds);
            assert_eq!((means.len(), stds.len()), (rows, rows));
            for (i, (m, s)) in means.iter().zip(&stds).enumerate() {
                assert_eq!(m.to_bits(), ps.mean_c(i, l).to_bits(), "l={l} i={i}");
                assert_eq!(s.to_bits(), ps.std(i, l).to_bits(), "l={l} i={i}");
            }
        }
    }
}
