//! Incremental tail extension of matrix profiles.
//!
//! A growing series invalidates nothing about the distance matrix it already
//! paid for: appending `k` samples adds `k` new columns (and rows, by
//! symmetry) and leaves every existing cell untouched — *provided the series
//! is profiled in a pinned frame* ([`ProfiledSeries::with_offset`]), so the
//! centred samples and rolling statistics over the original prefix do not
//! move. This module turns that observation into an exact `O(k·n)` update:
//!
//! * [`stomp_with_tail`] computes a cold profile and captures a
//!   [`TailState`] — the in-flight QT values of the matrix's last column,
//!   which every still-growing diagonal chains through.
//! * [`extend_profile`] walks the new columns with the *same* recurrence,
//!   seed expression, and distance lanes as the diagonal kernel
//!   ([`crate::diagonal`]), min-folding new cells into the old profile with
//!   [`fold_row`].
//!
//! ## Why the result is bit-identical to a cold recompute
//!
//! Both kernels chain every cell `(i, j)` from the direct-sum seed
//! `⟨T_0, T_{j−i}⟩` ([`seed_qt`]) along its diagonal, one left-associated
//! update per step. The extension continues those exact chains from the
//! stored last-column values, so each new cell's QT — and therefore its
//! distance — carries the same bits a cold run over `n + k` samples would
//! produce. The lexicographic `(distance, index)` min-fold is associative,
//! commutative, and idempotent, so folding the new cells into the old
//! profile equals folding all cells from scratch. The `extend` oracle in
//! `valmod-check` holds this to `to_bits` equality under randomized append
//! schedules.

use valmod_data::error::{DataError, Result};

use crate::context::ProfiledSeries;
use crate::diagonal::{diagonal_rows, fold_row, row_distances, Diagonals};
use crate::distance_profile::seed_qt;
use crate::exclusion::ExclusionPolicy;
use crate::matrix_profile::MatrixProfile;
use crate::workspace::Workspace;

/// The resumable tail of a matrix-profile computation at one length: the
/// QT values of the last column of the distance matrix, which are exactly
/// the chain heads every diagonal needs to keep growing.
#[derive(Debug, Clone)]
pub struct TailState {
    l: usize,
    radius: usize,
    n: usize,
    offset_bits: u64,
    /// `qt[i] = ⟨T_{i,ℓ}, T_{ndp−1,ℓ}⟩` for `i ∈ [0, ndp−1−radius]`
    /// (centred domain) — the last computed cell of diagonal `ndp−1−i`.
    qt: Vec<f64>,
}

impl TailState {
    /// Subsequence length the state describes.
    #[inline]
    pub fn l(&self) -> usize {
        self.l
    }

    /// Number of samples the state has been advanced to.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The exclusion radius baked into the traversal.
    #[inline]
    pub fn radius(&self) -> usize {
        self.radius
    }

    /// Approximate heap bytes held (for cache byte-budget accounting).
    pub fn heap_bytes(&self) -> usize {
        self.qt.len() * std::mem::size_of::<f64>()
    }

    /// Validates that `ps` is a grown version of the series this state was
    /// captured on — same pinned offset, no fewer samples — without
    /// advancing anything. Returns `(old_ndp, new_ndp)`. Callers that fold
    /// extension cells into their own structures should call this *before*
    /// resizing those structures, so a rejected series leaves them intact.
    pub fn check_grow(&self, ps: &ProfiledSeries) -> Result<(usize, usize)> {
        self.check(ps)
    }

    fn check(&self, ps: &ProfiledSeries) -> Result<(usize, usize)> {
        if ps.offset().to_bits() != self.offset_bits {
            return Err(DataError::InvalidParameter(
                "tail extension requires the pinned profiling offset of the original series".into(),
            ));
        }
        if ps.len() < self.n {
            return Err(DataError::InvalidParameter(format!(
                "tail extension cannot shrink a series ({} -> {} samples)",
                self.n,
                ps.len()
            )));
        }
        Ok((self.n - self.l + 1, ps.len() - self.l + 1))
    }
}

/// [`crate::stomp::stomp`] plus a captured [`TailState`]: the cold half of
/// the incremental pipeline. Bit-identical profile to the plain kernel (the
/// capture only *reads* QT values the traversal produces anyway).
pub fn stomp_with_tail(
    ps: &ProfiledSeries,
    l: usize,
    policy: ExclusionPolicy,
) -> Result<(MatrixProfile, TailState)> {
    let mut ws = Workspace::new();
    stomp_with_tail_ws(ps, l, policy, 1, &mut ws)
}

/// [`stomp_with_tail`] with `threads` workers (0 = all cores) over a
/// caller-held [`Workspace`]: each diagonal range folds its own profile and
/// captures its own chain heads, and the profiles merge by the same
/// `(distance, index)` min, so the result is bit-identical at every thread
/// count.
pub fn stomp_with_tail_ws(
    ps: &ProfiledSeries,
    l: usize,
    policy: ExclusionPolicy,
    threads: usize,
    ws: &mut Workspace,
) -> Result<(MatrixProfile, TailState)> {
    let diags = Diagonals::prepare(ps, l, &policy, ws)?;
    let (profile, heads) = diags.fold_ranges(threads, |range, part| {
        let (mp, ip) = (&mut part.mp, &mut part.ip);
        capture_cells(&diags, range, |i, j0, _qt, dist| fold_row(mp, ip, i, j0, dist))
    });
    Ok((profile, TailState::from_heads(ps, l, policy, heads)))
}

/// Streams every block row of diagonals `range` to `visit` exactly as
/// [`diagonal_rows`] does, and returns the range's chain heads: the QT
/// value of each diagonal's final cell, in the matrix's last column.
/// Diagonal `k` ends at row `ndp − 1 − k`, so the heads of `[k_start,
/// k_end)` are rows `ndp − k_end .. ndp − k_start`, in row order. This
/// lets callers with richer per-cell folds (e.g. `valmod-core`'s fused
/// lower-bound harvest) become extension-ready without a second pass, one
/// range per worker; [`TailState::from_heads`] assembles the state.
pub fn capture_cells<F>(diags: &Diagonals<'_>, range: (usize, usize), mut visit: F) -> Vec<f64>
where
    F: FnMut(usize, usize, &[f64], &[f64]),
{
    let (ndp, (k_start, k_end)) = (diags.ndp(), range);
    let first_row = ndp - k_end;
    let mut heads = vec![0.0f64; k_end - k_start];
    diagonal_rows(diags, range, |i, j0, qt, dist| {
        visit(i, j0, qt, dist);
        if j0 + qt.len() == ndp {
            // The lane with j == ndp−1 is the final cell of diagonal
            // ndp−1−i: the chain head a future extension continues from.
            heads[i - first_row] = qt[qt.len() - 1];
        }
    });
    heads
}

impl TailState {
    /// The tail of a traversal of `ps` at length `l`, from the chain heads
    /// [`capture_cells`] returned for each range of a split of
    /// [`Diagonals::full`], listed in ascending range order.
    pub fn from_heads(
        ps: &ProfiledSeries,
        l: usize,
        policy: ExclusionPolicy,
        heads: Vec<Vec<f64>>,
    ) -> TailState {
        // Later ranges end on earlier rows.
        let qt: Vec<f64> = heads.into_iter().rev().flatten().collect();
        let radius = policy.radius(l);
        debug_assert_eq!(qt.len(), (ps.len() + 1).saturating_sub(l).saturating_sub(radius));
        TailState { l, radius, n: ps.len(), offset_bits: ps.offset().to_bits(), qt }
    }
}

/// Streams every cell the series growth added — `(i, j)` with
/// `j ≥ old_ndp`, `j − i ≥ radius` — to `visit`, advancing the state to
/// `ps.len()` samples. Each new column `r` arrives once, in ascending `r`,
/// as the block row `visit(r, 0, qt, dist)`: lanes `i ∈ [0, r − radius]`
/// hold cell `(i, r)`. The cell is bitwise symmetric, so this is the
/// visitor shape [`diagonal_rows`] uses, and a heap fed by it sees its
/// offers in the order a column-major per-cell walk would give them.
/// Returns `(old_ndp, new_ndp)`.
///
/// `ps` must be the grown series profiled with the *same pinned offset* the
/// state was captured under; anything else is rejected. This is the shared
/// walk under [`extend_profile`] and the anchor-segment extension in
/// `valmod-core` (which additionally harvests the new cells into its
/// partial profiles).
pub fn extend_cells<F>(
    state: &mut TailState,
    ps: &ProfiledSeries,
    mut visit: F,
) -> Result<(usize, usize)>
where
    F: FnMut(usize, usize, &[f64], &[f64]),
{
    let (old_ndp, new_ndp) = state.check(ps)?;
    let (l, radius) = (state.l, state.radius);
    let t = ps.centered();
    let rows = new_ndp.saturating_sub(radius);
    let (mut means, mut stds) = (Vec::new(), Vec::new());
    ps.fill_stats(l, rows, &mut means, &mut stds);
    let mut dist = vec![0.0; rows];
    for r in old_ndp..new_ndp {
        let Some(imax) = r.checked_sub(radius) else { continue };
        // Column r chains cell (i, r) from cell (i−1, r−1) of the previous
        // column — update in place, descending, exactly the diagonal-step
        // expression of the blocked kernel (same association, same operand
        // order), then seed the new diagonal r at row 0 directly.
        state.qt.resize(imax + 1, 0.0);
        for i in (1..=imax).rev() {
            state.qt[i] = state.qt[i - 1] - t[i - 1] * t[r - 1] + t[i + l - 1] * t[r + l - 1];
        }
        state.qt[0] = seed_qt(t, r, l);
        let (w, row) = (imax + 1, (ps.mean_c(r, l), ps.std(r, l)));
        row_distances(l, row, &state.qt, &means[..w], &stds[..w], &mut dist[..w]);
        visit(r, 0, &state.qt, &dist[..w]);
    }
    state.n = ps.len();
    Ok((old_ndp, new_ndp))
}

/// Extends a cached per-length profile over the state's `n` samples to cover
/// all of `ps` — `O(k·n)` for `k` appended samples, bit-identical (`to_bits`)
/// to recomputing the profile cold over the grown series.
pub fn extend_profile(
    profile: &mut MatrixProfile,
    state: &mut TailState,
    ps: &ProfiledSeries,
) -> Result<()> {
    if profile.l != state.l {
        return Err(DataError::InvalidParameter(format!(
            "tail extension length mismatch: profile l={}, state l={}",
            profile.l, state.l
        )));
    }
    if profile.exclusion_radius != state.radius {
        return Err(DataError::InvalidParameter(format!(
            "tail extension exclusion mismatch: profile radius {}, state radius {}",
            profile.exclusion_radius, state.radius
        )));
    }
    let (old_ndp, new_ndp) = state.check(ps)?;
    if profile.len() != old_ndp {
        return Err(DataError::InvalidParameter(format!(
            "tail extension row mismatch: profile has {} rows, state covers {old_ndp}",
            profile.len()
        )));
    }
    profile.mp.resize(new_ndp, f64::INFINITY);
    profile.ip.resize(new_ndp, usize::MAX);
    let (mp, ip) = (&mut profile.mp, &mut profile.ip);
    extend_cells(state, ps, |r, j0, _qt, dist| fold_row(mp, ip, r, j0, dist))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::is_flat;
    use crate::stomp::stomp;
    use valmod_data::generators::{plant_motif, random_walk};

    fn assert_bits(a: &MatrixProfile, b: &MatrixProfile, what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for i in 0..a.len() {
            assert_eq!(a.mp[i].to_bits(), b.mp[i].to_bits(), "{what}: mp[{i}]");
            assert_eq!(a.ip[i], b.ip[i], "{what}: ip[{i}]");
        }
    }

    #[test]
    fn capture_does_not_change_the_profile() {
        let ps = ProfiledSeries::from_values(&random_walk(300, 11)).unwrap();
        for l in [8usize, 20] {
            let plain = stomp(&ps, l, ExclusionPolicy::HALF).unwrap();
            let (captured, state) = stomp_with_tail(&ps, l, ExclusionPolicy::HALF).unwrap();
            assert_bits(&captured, &plain, &format!("l={l}"));
            assert_eq!(state.n(), 300);
            assert_eq!(state.l(), l);
        }
    }

    #[test]
    fn threaded_capture_matches_one_thread_and_extends_alike() {
        let walk = random_walk(360, 29);
        let base = ProfiledSeries::from_values(&walk[..300]).unwrap();
        let grown = ProfiledSeries::with_offset(&walk, base.offset()).unwrap();
        let (mut one, mut one_tail) = stomp_with_tail(&base, 16, ExclusionPolicy::HALF).unwrap();
        extend_profile(&mut one, &mut one_tail, &grown).unwrap();
        for threads in [2usize, 3, 0] {
            let mut ws = Workspace::new();
            let (mut many, mut tail) =
                stomp_with_tail_ws(&base, 16, ExclusionPolicy::HALF, threads, &mut ws).unwrap();
            assert_bits(&many, &stomp(&base, 16, ExclusionPolicy::HALF).unwrap(), "capture");
            extend_profile(&mut many, &mut tail, &grown).unwrap();
            assert_bits(&many, &one, &format!("threads={threads}, extended"));
        }
    }

    #[test]
    fn extension_is_bit_identical_to_cold_stomp_across_schedules() {
        let walk = random_walk(420, 23);
        for schedule in [vec![1usize, 1, 1], vec![7, 40, 1, 52], vec![120]] {
            let base_n = 420 - schedule.iter().sum::<usize>();
            // The plain walk, and the walk with a flat stretch that crosses
            // the append boundary: flat rows and columns on both sides of it.
            let mut flat = walk.clone();
            flat[base_n - 20..(base_n + 25).min(420)].fill(1.5);
            let ps = ProfiledSeries::from_values(&flat).unwrap();
            let flat_row = |i: usize| is_flat(ps.std(i, 16), ps.mean_c(i, 16));
            assert!(flat_row(base_n - 20) && flat_row(base_n - 17), "flat rows at n={base_n}");
            for (series, what) in [(&walk, "walk"), (&flat, "flat stretch")] {
                extend_along(series, &schedule, what);
            }
        }
    }

    /// Extends a profile of `series`'s prefix by each batch of `schedule`
    /// in turn, checking it against a cold profile after every batch.
    fn extend_along(series: &[f64], schedule: &[usize], what: &str) {
        let base_n = series.len() - schedule.iter().sum::<usize>();
        let base = ProfiledSeries::from_values(&series[..base_n]).unwrap();
        let offset = base.offset();
        let (mut profile, mut state) = stomp_with_tail(&base, 16, ExclusionPolicy::HALF).unwrap();
        let mut n = base_n;
        for &k in schedule {
            n += k;
            let grown = ProfiledSeries::with_offset(&series[..n], offset).unwrap();
            extend_profile(&mut profile, &mut state, &grown).unwrap();
            let cold = stomp(&grown, 16, ExclusionPolicy::HALF).unwrap();
            assert_bits(&profile, &cold, &format!("{what}: schedule {schedule:?} at n={n}"));
        }
    }

    #[test]
    fn extension_works_on_structured_data_and_other_policies() {
        let (series, _) = plant_motif(600, 48, 3, 0.02, 31);
        let base = ProfiledSeries::from_values(&series[..500]).unwrap();
        let (mut profile, mut state) =
            stomp_with_tail(&base, 48, ExclusionPolicy::QUARTER).unwrap();
        let grown = ProfiledSeries::with_offset(&series, base.offset()).unwrap();
        extend_profile(&mut profile, &mut state, &grown).unwrap();
        let cold = stomp(&grown, 48, ExclusionPolicy::QUARTER).unwrap();
        assert_bits(&profile, &cold, "planted/quarter");
    }

    #[test]
    fn zero_sample_extension_is_a_no_op() {
        let ps = ProfiledSeries::from_values(&random_walk(200, 3)).unwrap();
        let (mut profile, mut state) = stomp_with_tail(&ps, 12, ExclusionPolicy::HALF).unwrap();
        let before = profile.clone();
        extend_profile(&mut profile, &mut state, &ps).unwrap();
        assert_bits(&profile, &before, "no-op");
        assert_eq!(state.n(), 200);
    }

    #[test]
    fn nearly_all_excluded_series_grows_into_validity() {
        // 12 samples at ℓ=10: every pair trivial (all-∞ profile). Growing to
        // 40 samples must introduce the first finite entries, identically to
        // a cold run.
        let series = random_walk(40, 7);
        let base = ProfiledSeries::from_values(&series[..12]).unwrap();
        let (mut profile, mut state) = stomp_with_tail(&base, 10, ExclusionPolicy::HALF).unwrap();
        assert!(profile.mp.iter().all(|d| d.is_infinite()));
        let grown = ProfiledSeries::with_offset(&series, base.offset()).unwrap();
        extend_profile(&mut profile, &mut state, &grown).unwrap();
        let cold = stomp(&grown, 10, ExclusionPolicy::HALF).unwrap();
        assert_bits(&profile, &cold, "grown into validity");
        assert!(profile.mp.iter().any(|d| d.is_finite()));
    }

    #[test]
    fn mismatched_frames_and_shrinking_are_rejected() {
        let series = random_walk(260, 9);
        let base = ProfiledSeries::from_values(&series[..200]).unwrap();
        let (mut profile, mut state) = stomp_with_tail(&base, 16, ExclusionPolicy::HALF).unwrap();
        // A grown series profiled in its own (drifted) frame is refused.
        let drifted = ProfiledSeries::from_values(&series).unwrap();
        assert!(extend_profile(&mut profile, &mut state, &drifted).is_err());
        // So is a shorter series.
        let short = ProfiledSeries::with_offset(&series[..150], base.offset()).unwrap();
        assert!(extend_profile(&mut profile, &mut state, &short).is_err());
        // And a length-mismatched profile.
        let (mut other, _) = stomp_with_tail(&base, 20, ExclusionPolicy::HALF).unwrap();
        let grown = ProfiledSeries::with_offset(&series, base.offset()).unwrap();
        assert!(extend_profile(&mut other, &mut state, &grown).is_err());
        // And a profile whose exclusion radius is not the state's (QUARTER
        // radius 4 against a HALF state's 8 at ℓ = 16): refused before
        // anything is resized.
        let (mut quarter, _) = stomp_with_tail(&base, 16, ExclusionPolicy::QUARTER).unwrap();
        let before = quarter.clone();
        let err = extend_profile(&mut quarter, &mut state, &grown).unwrap_err();
        assert!(matches!(err, DataError::InvalidParameter(_)), "{err}");
        assert_bits(&quarter, &before, "rejected radius mismatch");
        assert_eq!(state.n(), 200, "a rejected extension must not advance the state");
        // The matching profile still extends from the untouched state.
        extend_profile(&mut profile, &mut state, &grown).unwrap();
        assert_bits(&profile, &stomp(&grown, 16, ExclusionPolicy::HALF).unwrap(), "after refusals");
    }
}
