//! The diagonal-blocked STOMP kernel — the hot path of the whole stack.
//!
//! The classic row-by-row STOMP (kept as [`crate::stomp::stomp_row`], the
//! differential oracle) streams full `O(n)` rows: every row touches the
//! entire series and the entire statistics arrays, so at large `n` each row
//! update is a pass over memory that long since left cache. This kernel
//! traverses the distance matrix along *anti-diagonals* instead, in blocks
//! of [`Workspace::block`] adjacent diagonals:
//!
//! * On diagonal `k`, cell `(i, i+k)` follows from cell `(i−1, i+k−1)` by the
//!   same `O(1)` recurrence STOMP uses along a row — so a block of `B`
//!   diagonals needs only `B` in-flight QT values (seeded from the one
//!   directly-summed first row) plus a sliding window of the series and
//!   statistics: everything the inner loop touches stays in L1/L2.
//! * Each unordered pair `(i, j)` is visited exactly once (the matrix is
//!   symmetric), halving the arithmetic of the row kernel, and the
//!   symmetric min-update writes both `mp[i]` and `mp[j]`.
//! * The per-row QT update loop is branch-free over the block width and
//!   reads `t[j]` contiguously, so it auto-vectorises. So is the distance
//!   loop that follows it (`row_distances`): a visitor gets each block
//!   row as lane slices ([`diagonal_rows`]), never one call per cell.
//!
//! ## Bit-identity with the row kernel
//!
//! The QT value of any cell chains back to the direct-sum first row through
//! the exact same left-associated update expression in both kernels (for the
//! lower triangle the two factor orders of each product are swapped, and
//! IEEE-754 multiplication commutes), and `dist_from_qt` is bitwise
//! symmetric in its two subsequences. Min-updates break distance ties
//! toward the smaller neighbour index — exactly the order
//! [`profile_min`](crate::distance_profile::profile_min) produces scanning a
//! row left to right. The `valmod-check` oracle `diagonal-vs-row` holds the
//! two kernels to bit-identical `mp` *and* `ip` arrays across every
//! generator family and block size.

use valmod_data::error::Result;
use valmod_obs::{Recorder, SharedRecorder};

use crate::context::ProfiledSeries;
use crate::distance::is_flat;
use crate::exclusion::ExclusionPolicy;
use crate::matrix_profile::MatrixProfile;
use crate::parallel::{map_chunks, resolve_threads};
use crate::workspace::Workspace;

/// Lexicographic `(distance, index)` min-update: `profile_min` keeps the
/// first index achieving the row minimum, i.e. ties resolve to the smaller
/// neighbour. The `is_finite` guard keeps never-updated slots at
/// `(∞, usize::MAX)` exactly like the row kernel leaves them. Public so the
/// fused harvesting traversal in `valmod-core` folds with the same rule.
#[inline(always)]
pub fn lex_update(mp: &mut f64, ip: &mut usize, d: f64, j: usize) {
    if d < *mp || (d == *mp && d.is_finite() && j < *ip) {
        *mp = d;
        *ip = j;
    }
}

/// The seeds of one diagonal traversal at length `l`: the direct-summation
/// first row (`qt_first[k] = ⟨T_0, T_k⟩`, see
/// [`seed_qt`](crate::distance_profile::seed_qt)) and the per-offset
/// statistics, prepared once per pass in a [`Workspace`] and shared
/// read-only by every diagonal range of the pass — one range on the calling
/// thread, or one per worker.
///
/// The seeds are deliberately *not* FFT-computed: an FFT sliding dot product
/// is bit-sensitive to the transform size and therefore to `n`, while the
/// direct sum for diagonal `k` reads only `t[..l]` and `t[k..k+l]` — so a
/// series that grows by appends keeps every existing seed, which is what lets
/// the tail-extension path (`crate::extend`) continue the diagonal chains
/// bit-identically. The `O(nℓ)` seed cost is negligible against the `O(n²)`
/// traversal.
#[derive(Debug, Clone, Copy)]
pub struct Diagonals<'a> {
    t: &'a [f64],
    l: usize,
    ndp: usize,
    radius: usize,
    block: usize,
    qt_first: &'a [f64],
    means: &'a [f64],
    stds: &'a [f64],
}

impl<'a> Diagonals<'a> {
    /// Fills `ws`'s seed buffers for a traversal of `ps` at length `l`.
    pub fn prepare(
        ps: &'a ProfiledSeries,
        l: usize,
        policy: &ExclusionPolicy,
        ws: &'a mut Workspace,
    ) -> Result<Self> {
        let ndp = ps.require_pairs(l)?;
        ws.note_use();
        let t = ps.centered();
        let block = ws.block();
        let Workspace { qt_first, means, stds, .. } = ws;
        crate::distance_profile::seed_qt_row_into(t, l, ndp, qt_first);
        debug_assert_eq!(qt_first.len(), ndp);
        ps.fill_stats(l, ndp, means, stds);
        Ok(Diagonals { t, l, ndp, radius: policy.radius(l), block, qt_first, means, stds })
    }

    /// Number of subsequences (rows, and columns) of the distance matrix.
    #[inline]
    pub fn ndp(&self) -> usize {
        self.ndp
    }

    /// The whole traversal, diagonals `[radius, ndp)` (empty when the
    /// exclusion zone covers every pair).
    #[inline]
    pub fn full(&self) -> (usize, usize) {
        (self.radius.min(self.ndp), self.ndp)
    }

    /// The traversal split for `threads` workers ([`diagonal_chunks`]):
    /// contiguous ascending ranges covering [`Diagonals::full`], never none
    /// (a fully excluded traversal is one empty range).
    pub fn chunks(&self, threads: usize) -> Vec<(usize, usize)> {
        let chunks = diagonal_chunks(self.ndp, self.radius, threads);
        if chunks.is_empty() {
            vec![self.full()]
        } else {
            chunks
        }
    }

    /// A profile with every slot unset, `(∞, usize::MAX)`.
    fn unset_profile(&self) -> MatrixProfile {
        MatrixProfile {
            l: self.l,
            mp: vec![f64::INFINITY; self.ndp],
            ip: vec![usize::MAX; self.ndp],
            exclusion_radius: self.radius,
        }
    }

    /// Min-folds both ends of every cell of diagonals `range` into `out`.
    fn fold_into(&self, range: (usize, usize), out: &mut MatrixProfile) {
        let (mp, ip) = (&mut out.mp, &mut out.ip);
        diagonal_rows(self, range, |i, j0, _qt, dist| fold_row(mp, ip, i, j0, dist));
    }

    /// Runs `fold` over each of the `threads` ranges ([`Diagonals::chunks`],
    /// spread by [`map_chunks`]: the last on the calling thread), each into
    /// its own unset profile, and merges the profiles lexicographically.
    /// Returns the merged profile and each range's own output, in range
    /// order.
    pub(crate) fn fold_ranges<T, F>(&self, threads: usize, fold: F) -> (MatrixProfile, Vec<T>)
    where
        T: Send,
        F: Fn((usize, usize), &mut MatrixProfile) -> T + Sync,
    {
        let (mut parts, outputs): (Vec<_>, Vec<_>) = map_chunks(&self.chunks(threads), |range| {
            let mut part = self.unset_profile();
            let output = fold(range, &mut part);
            (part, output)
        })
        .into_iter()
        .unzip();
        let mut out = parts.pop().expect("a traversal has at least one range");
        for part in &parts {
            merge_partial(&mut out, part);
        }
        (out, outputs)
    }
}

/// Z-normalised distances of one block row: `dist[c]` gets the bits of
/// `dist_from_qt(qt[c], l, mean_i, std_i, means[c], stds[c])`.
///
/// One branch-free lane loop: row `i`'s flat flag is hoisted, every lane
/// evaluates the general expression with exactly `dist_from_qt`'s IEEE
/// operations and association (Rust never contracts to FMA), and the flat
/// cases are blended in by select — so the loop vectorises and each lane
/// carries the scalar call's bits. Every distance is finite: the
/// correlation is clamped, and a NaN one yields `max(NaN, 0) = 0`.
#[inline(always)]
pub(crate) fn row_distances(
    l: usize,
    (mean_i, std_i): (f64, f64),
    qt: &[f64],
    means: &[f64],
    stds: &[f64],
    dist: &mut [f64],
) {
    let lf = l as f64;
    let (two_l, sqrt_l) = (2.0 * lf, lf.sqrt());
    if is_flat(std_i, mean_i) {
        for (d, (&mean_j, &std_j)) in dist.iter_mut().zip(means.iter().zip(stds)) {
            *d = if is_flat(std_j, mean_j) { 0.0 } else { sqrt_l };
        }
        return;
    }
    for ((d, &q), (&mean_j, &std_j)) in dist.iter_mut().zip(qt).zip(means.iter().zip(stds)) {
        let corr = ((q / lf - mean_i * mean_j) / (std_i * std_j)).clamp(-1.0, 1.0);
        let general = (two_l * (1.0 - corr)).max(0.0).sqrt();
        *d = if is_flat(std_j, mean_j) { sqrt_l } else { general };
    }
}

/// Lanes per chunk of [`fold_row`]'s pre-test.
const FOLD_LANES: usize = 8;

/// Min-folds the block row `(i, j0..j0 + dist.len())` into `(mp, ip)`:
/// row `i` by [`lex_update`] over ascending `j`, then each column `j` with
/// neighbour `i`. Every slot ends with the bits a per-cell [`lex_update`]
/// of both ends would leave, because that fold is order-independent.
///
/// A lane can only move a slot whose minimum it does not exceed, and once
/// the first blocks have passed almost none does. So each chunk of
/// `FOLD_LANES` lanes is first tested with branch-free compares (`d ≤`
/// the slot's minimum; NaN fails), and only a passing chunk runs
/// [`lex_update`]. The row's test reads its minimum at the chunk's start,
/// which only falls, so no lane that would update is skipped.
#[inline(always)]
pub fn fold_row(mp: &mut [f64], ip: &mut [usize], i: usize, j0: usize, dist: &[f64]) {
    let (mut best, mut arg) = (mp[i], ip[i]);
    for (c0, ds) in (0..dist.len()).step_by(FOLD_LANES).zip(dist.chunks(FOLD_LANES)) {
        if ds.iter().fold(false, |any, &d| any | (d <= best)) {
            for (c, &d) in ds.iter().enumerate() {
                lex_update(&mut best, &mut arg, d, j0 + c0 + c);
            }
        }
    }
    (mp[i], ip[i]) = (best, arg);
    let cols = j0..j0 + dist.len();
    let slots = mp[cols.clone()].chunks_mut(FOLD_LANES).zip(ip[cols].chunks_mut(FOLD_LANES));
    for (ds, (ms, ps)) in dist.chunks(FOLD_LANES).zip(slots) {
        if ds.iter().zip(&*ms).fold(false, |any, (&d, &m)| any | (d <= m)) {
            for ((m, p), &d) in ms.iter_mut().zip(ps).zip(ds) {
                lex_update(m, p, d, i);
            }
        }
    }
}

/// Streams diagonals `k ∈ [k_start, k_end)` one block row at a time: for
/// each block of the workspace's block width and each row `i` it holds,
/// `visit(i, j0, qt, dist)` gets the row's cells `(i, j0 + c)` as lanes —
/// their dot products and distances (`row_distances`). The range must lie
/// within [`Diagonals::full`]; each cell's QT chains from the shared seed
/// of its diagonal, so any split of the diagonals into ranges visits every
/// cell with the same bits.
///
/// Rows arrive in ascending order within a block, so for a fixed `i` cells
/// arrive in ascending `j`, and for a fixed `j` in ascending `i` — a
/// lexicographic min-fold over the visits reproduces the row kernel's
/// profile exactly.
pub fn diagonal_rows<F>(diags: &Diagonals<'_>, (k_start, k_end): (usize, usize), mut visit: F)
where
    F: FnMut(usize, usize, &[f64], &[f64]),
{
    let Diagonals { t, l, ndp, block, qt_first, means, stds, .. } = *diags;
    debug_assert!(diags.radius.min(ndp) <= k_start && k_start <= k_end && k_end <= ndp);
    let width = block.min(k_end - k_start);
    let mut diag = Vec::with_capacity(width);
    let mut dist = vec![0.0; width];
    let mut kb = k_start;
    while kb < k_end {
        let bw = block.min(k_end - kb);
        diag.clear();
        diag.extend_from_slice(&qt_first[kb..kb + bw]);
        // The block is a trapezoid: diagonal kb+c holds rows 0..ndp-(kb+c).
        for i in 0..ndp - kb {
            let (j0, w) = (i + kb, bw.min(ndp - kb - i));
            let (qt, dist) = (&mut diag[..w], &mut dist[..w]);
            if i > 0 {
                // The STOMP recurrence along each diagonal (paper Alg. 3
                // lines 10–12, same expression and association as the row
                // kernel), contiguous in both t reads — vectorises.
                let (a, b) = (t[i - 1], t[i + l - 1]);
                let lanes = t[j0 - 1..j0 - 1 + w].iter().zip(&t[j0 + l - 1..j0 + l - 1 + w]);
                for (q, (&x, &y)) in qt.iter_mut().zip(lanes) {
                    *q = *q - a * x + b * y;
                }
            }
            let cols = j0..j0 + w;
            row_distances(l, (means[i], stds[i]), qt, &means[cols.clone()], &stds[cols], dist);
            visit(i, j0, qt, dist);
        }
        kb += bw;
    }
}

/// Number of diagonal blocks the blocked traversal of `ndp` subsequences
/// visits (for the `mp.diag.blocks` counter).
pub fn block_count(ndp: usize, radius: usize, block: usize) -> u64 {
    if radius >= ndp {
        0
    } else {
        ((ndp - radius).div_ceil(block.max(1))) as u64
    }
}

/// The sequential diagonal-blocked matrix profile, reusing `ws` across
/// calls. Bit-identical to [`crate::stomp::stomp_row`].
pub fn stomp_diagonal_ws(
    ps: &ProfiledSeries,
    l: usize,
    policy: ExclusionPolicy,
    ws: &mut Workspace,
) -> Result<MatrixProfile> {
    stomp_diagonal_parallel_ws(ps, l, policy, 1, ws)
}

/// The accounting of one full-profile kernel pass over a [`Workspace`]:
/// [`PassBaseline::take`] snapshots the workspace before the pass and
/// [`PassBaseline::record`] turns the difference into the pass counters.
/// Every recorded full-profile pass, plain or harvesting, is counted here.
#[derive(Debug, Clone, Copy)]
pub struct PassBaseline {
    hits0: u64,
    misses0: u64,
    reused: bool,
}

impl PassBaseline {
    /// Snapshots `ws` before a pass.
    pub fn take(ws: &Workspace) -> Self {
        PassBaseline {
            hits0: ws.plan_cache().hits(),
            misses0: ws.plan_cache().misses(),
            reused: ws.uses() > 0,
        }
    }

    /// Records the pass over `ndp` rows at `l` into `recorder`: one seed
    /// row (`mp.mass.calls`; every other cell uses the O(1) update), the
    /// rows (`mp.stomp.rows`), the diagonal blocks (`mp.diag.blocks`),
    /// workspace recycling (`mp.workspace.reuses`) and the FFT plan-cache
    /// traffic (`fft.plan_cache.hits`/`misses`). A disabled recorder costs
    /// one branch.
    pub fn record(
        self,
        recorder: &SharedRecorder,
        ndp: usize,
        l: usize,
        policy: ExclusionPolicy,
        ws: &Workspace,
    ) {
        if !recorder.enabled() {
            return;
        }
        recorder.add("mp.mass.calls", 1);
        recorder.add("mp.stomp.rows", ndp as u64);
        recorder.add("mp.diag.blocks", block_count(ndp, policy.radius(l), ws.block()));
        if self.reused {
            recorder.add("mp.workspace.reuses", 1);
        }
        recorder.add("fft.plan_cache.hits", ws.plan_cache().hits() - self.hits0);
        recorder.add("fft.plan_cache.misses", ws.plan_cache().misses() - self.misses0);
    }
}

/// Splits diagonals `[radius, ndp)` into at most `threads` contiguous
/// `(k_start, k_end)` ranges of roughly equal *cell* count (diagonal `k`
/// holds `ndp − k` cells, so equal-width ranges would leave the first worker
/// with most of the work). Deterministic in its inputs.
pub fn diagonal_chunks(ndp: usize, radius: usize, threads: usize) -> Vec<(usize, usize)> {
    if radius >= ndp {
        return Vec::new();
    }
    let threads = resolve_threads(threads).clamp(1, ndp - radius);
    let total_cells: u64 = (radius..ndp).map(|k| (ndp - k) as u64).sum();
    let mut chunks = Vec::with_capacity(threads);
    let mut k = radius;
    let mut cells_left = total_cells;
    for worker in 0..threads {
        let target = cells_left.div_ceil((threads - worker) as u64);
        let start = k;
        let mut took = 0u64;
        while k < ndp && (took < target || k == start) {
            took += (ndp - k) as u64;
            k += 1;
        }
        cells_left -= took;
        if k > start {
            chunks.push((start, k));
        }
        if k >= ndp {
            break;
        }
    }
    debug_assert_eq!(chunks.last().map(|c| c.1), Some(ndp));
    chunks
}

/// Computes the *partial* matrix profile contributed by diagonals
/// `[k_start, k_end)` alone: a full-length `(mp, ip)` pair where slots never
/// touched by this range stay at `(∞, usize::MAX)`. The range must lie within
/// `[policy.radius(l), ndp]` — out-of-range bounds are clamped, an empty
/// range yields the all-infinite profile.
///
/// This is the unit of distributed work: min-merging the partials of any
/// family of ranges that covers `[radius, ndp)` (overlaps and duplicates
/// included — the lexicographic min is idempotent) with [`merge_partial`]
/// reproduces [`stomp_diagonal_ws`] bit for bit.
pub fn stomp_diagonal_range_ws(
    ps: &ProfiledSeries,
    l: usize,
    policy: ExclusionPolicy,
    (k_start, k_end): (usize, usize),
    ws: &mut Workspace,
) -> Result<MatrixProfile> {
    let diags = Diagonals::prepare(ps, l, &policy, ws)?;
    let (lo, hi) = diags.full();
    let (k_start, k_end) = (k_start.clamp(lo, hi), k_end.clamp(lo, hi));
    let mut out = diags.unset_profile();
    diags.fold_into((k_start, k_end.max(k_start)), &mut out);
    Ok(out)
}

/// Lexicographically min-merges the partial profile `src` into `dst`
/// slot-by-slot. Because [`lex_update`] is associative, commutative, and
/// idempotent, merging any multiset of partials whose ranges cover the
/// diagonal span — in any order, with duplicates — yields the same bits as
/// the sequential kernel.
///
/// # Panics
/// If the two profiles have different lengths or subsequence lengths.
pub fn merge_partial(dst: &mut MatrixProfile, src: &MatrixProfile) {
    assert_eq!(dst.l, src.l, "merge_partial: subsequence length mismatch");
    assert_eq!(dst.len(), src.len(), "merge_partial: profile length mismatch");
    for i in 0..src.len() {
        lex_update(&mut dst.mp[i], &mut dst.ip[i], src.mp[i], src.ip[i]);
    }
}

/// The parallel diagonal-blocked matrix profile: diagonals are partitioned
/// into cell-balanced contiguous ranges ([`Diagonals::chunks`]), each range
/// min-folds into its own full-length profile ([`map_chunks`]: the last on
/// the calling thread), and the profiles merge lexicographically.
///
/// The lexicographic `(distance, index)` min is associative and commutative,
/// so the result is bit-identical to the sequential kernel — and therefore
/// to the row kernel — for *any* thread count. One thread is one range on
/// the calling thread: no spawn and no merge.
pub fn stomp_diagonal_parallel_ws(
    ps: &ProfiledSeries,
    l: usize,
    policy: ExclusionPolicy,
    threads: usize,
    ws: &mut Workspace,
) -> Result<MatrixProfile> {
    let diags = Diagonals::prepare(ps, l, &policy, ws)?;
    Ok(diags.fold_ranges(threads, |range, part| diags.fold_into(range, part)).0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stomp::stomp_row;
    use valmod_data::generators::{plant_motif, random_walk, sine_mixture};

    fn assert_profiles_bit_identical(a: &MatrixProfile, b: &MatrixProfile, what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for i in 0..a.len() {
            assert_eq!(a.mp[i].to_bits(), b.mp[i].to_bits(), "{what}: mp[{i}]");
            assert_eq!(a.ip[i], b.ip[i], "{what}: ip[{i}]");
        }
    }

    #[test]
    fn diagonal_matches_row_kernel_bit_for_bit() {
        let ps = ProfiledSeries::from_values(&random_walk(500, 17)).unwrap();
        for l in [8usize, 16, 50] {
            let row = stomp_row(&ps, l, ExclusionPolicy::HALF).unwrap();
            let mut ws = Workspace::new();
            let diag = stomp_diagonal_ws(&ps, l, ExclusionPolicy::HALF, &mut ws).unwrap();
            assert_profiles_bit_identical(&diag, &row, &format!("l={l}"));
        }
    }

    #[test]
    fn block_width_does_not_change_a_single_bit() {
        let (series, _) = plant_motif(400, 30, 3, 0.01, 23);
        let ps = ProfiledSeries::from_values(&series).unwrap();
        let row = stomp_row(&ps, 30, ExclusionPolicy::HALF).unwrap();
        // 7, 8 and 9 sit around a multiple of every vector width, so the
        // lane loops run with and without a scalar remainder.
        for block in [1usize, 3, 7, 8, 9, 64, 10_000] {
            let mut ws = Workspace::with_block(block);
            let diag = stomp_diagonal_ws(&ps, 30, ExclusionPolicy::HALF, &mut ws).unwrap();
            assert_profiles_bit_identical(&diag, &row, &format!("block={block}"));
        }
    }

    #[test]
    fn workspace_reuse_across_lengths_does_not_change_results() {
        let series = sine_mixture(600, &[(0.03, 1.0), (0.011, 0.4)], 0.05, 3);
        let ps = ProfiledSeries::from_values(&series).unwrap();
        let mut ws = Workspace::new();
        for l in 10..40 {
            let reused = stomp_diagonal_ws(&ps, l, ExclusionPolicy::HALF, &mut ws).unwrap();
            let fresh =
                stomp_diagonal_ws(&ps, l, ExclusionPolicy::HALF, &mut Workspace::new()).unwrap();
            assert_profiles_bit_identical(&reused, &fresh, &format!("l={l}"));
        }
        assert!(ws.uses() > 1);
        // Direct seeding keeps the blocked kernel off the FFT entirely; the
        // plan cache is reserved for MASS/refinement paths.
        assert_eq!(ws.plan_cache().hits() + ws.plan_cache().misses(), 0);
    }

    #[test]
    fn parallel_is_bit_identical_for_any_thread_count() {
        let ps = ProfiledSeries::from_values(&random_walk(350, 31)).unwrap();
        let row = stomp_row(&ps, 24, ExclusionPolicy::HALF).unwrap();
        for threads in [1usize, 2, 3, 7, 16, 64] {
            let mut ws = Workspace::new();
            let par = stomp_diagonal_parallel_ws(&ps, 24, ExclusionPolicy::HALF, threads, &mut ws)
                .unwrap();
            assert_profiles_bit_identical(&par, &row, &format!("threads={threads}"));
        }
    }

    #[test]
    fn fully_excluded_series_yields_all_infinite() {
        let ps = ProfiledSeries::from_values(&random_walk(12, 2)).unwrap();
        let mut ws = Workspace::new();
        let p = stomp_diagonal_ws(&ps, 10, ExclusionPolicy::HALF, &mut ws).unwrap();
        assert!(p.mp.iter().all(|d| d.is_infinite()));
        assert!(p.ip.iter().all(|&j| j == usize::MAX));
    }

    #[test]
    fn diagonal_chunks_cover_exactly_once_and_balance_cells() {
        for (ndp, radius, threads) in
            [(100, 5, 4), (50, 49, 8), (300, 1, 3), (10, 12, 2), (64, 8, 64)]
        {
            let chunks = diagonal_chunks(ndp, radius, threads);
            if radius >= ndp {
                assert!(chunks.is_empty());
                continue;
            }
            let mut next = radius;
            for &(s, e) in &chunks {
                assert_eq!(s, next);
                assert!(e > s);
                next = e;
            }
            assert_eq!(next, ndp);
            // Cell balance: no chunk more than ~2x the mean.
            let cells: Vec<u64> =
                chunks.iter().map(|&(s, e)| (s..e).map(|k| (ndp - k) as u64).sum()).collect();
            let mean = cells.iter().sum::<u64>() / cells.len() as u64;
            for &c in &cells {
                assert!(c <= 2 * mean + (ndp as u64), "chunk {c} vs mean {mean}");
            }
        }
    }

    #[test]
    fn range_partials_merge_bit_identically_for_any_partition() {
        let ps = ProfiledSeries::from_values(&random_walk(320, 9)).unwrap();
        let l = 20usize;
        let policy = ExclusionPolicy::HALF;
        let full = stomp_row(&ps, l, policy).unwrap();
        let ndp = full.len();
        let radius = policy.radius(l);
        for parts in [1usize, 2, 3, 5, 11] {
            let chunks = diagonal_chunks(ndp, radius, parts);
            let mut ws = Workspace::new();
            let mut merged = MatrixProfile {
                l,
                mp: vec![f64::INFINITY; ndp],
                ip: vec![usize::MAX; ndp],
                exclusion_radius: radius,
            };
            // Merge in reverse order to exercise commutativity.
            for &range in chunks.iter().rev() {
                let partial = stomp_diagonal_range_ws(&ps, l, policy, range, &mut ws).unwrap();
                merge_partial(&mut merged, &partial);
            }
            assert_profiles_bit_identical(&merged, &full, &format!("parts={parts}"));
        }
    }

    #[test]
    fn duplicate_and_overlapping_ranges_are_harmless() {
        let ps = ProfiledSeries::from_values(&random_walk(200, 5)).unwrap();
        let l = 16usize;
        let policy = ExclusionPolicy::HALF;
        let full = stomp_row(&ps, l, policy).unwrap();
        let ndp = full.len();
        let radius = policy.radius(l);
        let mid = radius + (ndp - radius) / 2;
        let mut ws = Workspace::new();
        let mut merged = MatrixProfile {
            l,
            mp: vec![f64::INFINITY; ndp],
            ip: vec![usize::MAX; ndp],
            exclusion_radius: radius,
        };
        // First half twice (a redispatched shard), overlapping second half.
        for range in [(radius, mid), (radius, mid), (mid.saturating_sub(3), ndp)] {
            let partial = stomp_diagonal_range_ws(&ps, l, policy, range, &mut ws).unwrap();
            merge_partial(&mut merged, &partial);
        }
        assert_profiles_bit_identical(&merged, &full, "dup+overlap");
    }

    #[test]
    fn empty_and_clamped_ranges_yield_infinite_partials() {
        let ps = ProfiledSeries::from_values(&random_walk(100, 1)).unwrap();
        let mut ws = Workspace::new();
        let p = stomp_diagonal_range_ws(&ps, 10, ExclusionPolicy::HALF, (7, 7), &mut ws).unwrap();
        assert!(p.mp.iter().all(|d| d.is_infinite()));
        // A range entirely below the radius clamps to empty.
        let q = stomp_diagonal_range_ws(&ps, 10, ExclusionPolicy::HALF, (0, 2), &mut ws).unwrap();
        assert!(q.mp.iter().all(|d| d.is_infinite()));
    }

    #[test]
    fn block_count_matches_traversal() {
        assert_eq!(block_count(100, 5, 256), 1);
        assert_eq!(block_count(100, 5, 10), 10);
        assert_eq!(block_count(100, 5, 1), 95);
        assert_eq!(block_count(10, 12, 4), 0);
    }
}
