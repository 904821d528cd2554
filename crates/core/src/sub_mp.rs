//! `ComputeSubMP` (paper Algorithm 4): the motif of the next length from the
//! partial distance profiles alone — `O(np)` in the best case.
//!
//! ## Soundness argument (mirrors §4.1/§4.4 of the paper)
//!
//! For each profile `j`, the heap retained the `p` pairs with the smallest
//! anchor LBs; every *unstored* pair therefore has anchor LB ≥ the heap
//! maximum. Scaling by the shared σ-ratio preserves that ordering at the new
//! length, so every unstored pair's true distance is ≥ `maxLB`:
//!
//! * **valid profile** (`minDist ≤ maxLB`): the minimum over stored entries
//!   is the profile's true minimum — `SubMP[j]` is exact.
//! * **non-valid profile**: every one of its distances (stored > `minDist` >
//!   `maxLB` reasoning inverted, unstored ≥ `maxLB`) is ≥ `maxLB`.
//!
//! Hence if the global minimum over valid profiles beats the smallest
//! `maxLB` among non-valid profiles, it is the true motif distance
//! (`bBestM`). Entries that become invalid at the new length (neighbour
//! slides off the end, or the grown exclusion zone swallows the pair) only
//! *shrink* the set of real pairs, so discarding them keeps every statement
//! above conservative.
//!
//! The same bound prunes inside a row: a stored entry whose scaled bound
//! exceeds the row's running minimum cannot be that minimum, so the advance
//! does not compute its distance (`LengthTable::advance_row`).

use valmod_mp::distance::{dist_from_qt, is_flat};
use valmod_mp::distance_profile::{dp_from_qt_into, profile_min};
use valmod_mp::exclusion::ExclusionPolicy;
use valmod_mp::parallel::row_chunks;
use valmod_mp::workspace::{HarvestHint, Workspace};
use valmod_mp::ProfiledSeries;
use valmod_obs::{Recorder, SharedRecorder};

use crate::harvest::{harvest_row, HarvestStats};
use crate::lb::sigma_ratio;
use crate::profile::{DpEntry, PartialProfile};

/// Result of one `ComputeSubMP` invocation.
#[derive(Debug, Clone)]
pub struct SubMpResult {
    /// `bBestM`: whether `sub_mp` is guaranteed to contain the true motif
    /// distance for this length.
    pub found_motif: bool,
    /// Partial matrix profile: exact minima for valid (and recomputed) rows,
    /// `NaN` (the paper's ⊥) for rows whose minimum is unknown, `+∞` for
    /// rows with no valid pair at this length.
    pub sub_mp: Vec<f64>,
    /// Nearest-neighbour offsets matching `sub_mp` (`usize::MAX` when
    /// unknown or absent).
    pub ip: Vec<usize>,
    /// Instrumentation: rows whose stored minimum was provably exact.
    pub valid_rows: usize,
    /// Instrumentation: rows marked ⊥ in the first pass.
    pub nonvalid_rows: usize,
    /// Instrumentation: rows recomputed in the last-chance pass.
    pub recomputed_rows: usize,
}

impl SubMpResult {
    /// Number of known (non-⊥) entries — the "size of the matrix profile
    /// subset" plotted in the paper's Fig. 14 (right).
    pub fn known_entries(&self) -> usize {
        self.sub_mp.iter().filter(|d| !d.is_nan()).count()
    }

    /// The minimum known distance and its offset, if any finite entry exists.
    pub fn min_entry(&self) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for (i, &d) in self.sub_mp.iter().enumerate() {
            if d.is_finite() && best.is_none_or(|(_, bd)| d < bd) {
                best = Some((i, d));
            }
        }
        best
    }
}

/// Relative slack of the lazy advance's skip rule: an entry's distance is
/// left uncomputed only while its Eq. 2 bound exceeds the row's running
/// minimum by more than this share plus [`SKIP_ABS_MARGIN`]. The margin is
/// at least the admissibility tolerance `valmod check` holds the bound to,
/// so a skipped entry's distance is above the row's minimum, and ties with
/// the minimum are always computed.
const SKIP_REL_MARGIN: f64 = 1e-6;

/// Absolute slack of the skip rule, for minima near 0.
const SKIP_ABS_MARGIN: f64 = 1e-6;

/// What advancing every row to one length reads, hoisted out of the
/// per-entry loop: the centred series, the length's statistics table (one
/// `O(n)` fill per length) and its exclusion radius.
pub(crate) struct LengthTable<'a> {
    t: &'a [f64],
    l: usize,
    radius: usize,
    means: &'a [f64],
    stds: &'a [f64],
}

/// One row advanced by [`LengthTable::advance_row`].
pub(crate) struct RowAdvance {
    /// The smallest valid distance (`+∞` when none); ties go to the smaller
    /// neighbour.
    pub(crate) min_dist: f64,
    /// The neighbour of `min_dist` (`usize::MAX` when none).
    pub(crate) ind: usize,
    /// `maxLB` at the new length ([`PartialProfile::max_lb_at`]).
    pub(crate) max_lb: f64,
    /// The largest distance over the row's entries, `+∞` once any entry is
    /// invalid or the heap is not full: the row's [`HarvestHint`] bound.
    /// `NaN` when the advance skipped entries and the bound is finite:
    /// [`LengthTable::max_dist`] then completes it.
    pub(crate) max_dist: f64,
    /// Entries still valid at the new length (their dot products advanced).
    pub(crate) entries: usize,
    /// Distances computed: `entries` minus those the skip rule left out.
    pub(crate) distances: usize,
}

impl<'a> LengthTable<'a> {
    /// The table of length `l`; `means`/`stds` hold one entry per
    /// subsequence of that length ([`ProfiledSeries::fill_stats`]).
    pub(crate) fn new(
        ps: &'a ProfiledSeries,
        l: usize,
        policy: &ExclusionPolicy,
        means: &'a [f64],
        stds: &'a [f64],
    ) -> Self {
        debug_assert!(means.len() == ps.num_subsequences(l) && stds.len() == means.len());
        LengthTable { t: ps.centered(), l, radius: policy.radius(l), means, stds }
    }

    /// `σ(T_{j,ℓ})` from the table.
    #[inline]
    pub(crate) fn sigma(&self, j: usize) -> f64 {
        self.stds[j]
    }

    /// The distance of row `j`'s live `entry`, already advanced to the
    /// table's length (Eq. 3).
    #[inline]
    fn dist(&self, j: usize, entry: &DpEntry) -> f64 {
        let i = entry.neighbor();
        dist_from_qt(entry.qt(), self.l, self.means[i], self.stds[i], self.means[j], self.stds[j])
    }

    /// Row `j`'s [`RowAdvance::max_dist`] after an advance that skipped
    /// entries: the largest distance over its entries, all live (a dead
    /// entry makes the bound `+∞` without any distance).
    pub(crate) fn max_dist(&self, j: usize, prof: &PartialProfile) -> f64 {
        prof.entries().iter().map(|e| self.dist(j, e)).fold(0.0, f64::max)
    }

    /// Advances row `j`'s entries from `prof.current_l` to the table's
    /// length (paper's `updateDistAndLB`), `O(1)` per entry and unit length
    /// step: extend the dot product by the newly covered samples, then take
    /// the distance (Eq. 3) from the table. An entry whose neighbour slid
    /// off the end (`i ≥ ndp`) or entered the grown exclusion zone is
    /// marked dead (`qt = NaN`) for good: the radius only grows and the end
    /// only gets closer, so its stale dot product is never read again.
    ///
    /// A distance is computed only while the entry's Eq. 2 bound
    /// `lb_base · σ_anchor/σ_new` can still reach the row's running minimum
    /// (within [`SKIP_REL_MARGIN`] and [`SKIP_ABS_MARGIN`]); the dot product
    /// advances either way, so a later length or reader finds it current.
    /// All of a row's bounds share the σ-ratio, so the anchor key order is
    /// the bound order: from its second advance after anchoring the row is
    /// sorted once ([`PartialProfile::sort_for_scan`]), and the scan from
    /// the end meets the smallest bounds first, where the minimum lives. A
    /// flat owner (whose distances follow the flat convention, not the
    /// bound) and a zero σ-ratio (every bound 0) compute every distance. The
    /// minimum, `maxLB` and a finite hint bound are those of an advance that
    /// computes every distance, bit for bit.
    #[inline]
    pub(crate) fn advance_row(&self, j: usize, prof: &mut PartialProfile) -> RowAdvance {
        let (t, l, ndp) = (self.t, self.l, self.means.len());
        let (mean_j, std_j) = (self.means[j], self.stds[j]);
        let from_l = prof.current_l;
        let ratio = sigma_ratio(prof.anchor_sigma, std_j);
        let mut row = RowAdvance {
            min_dist: f64::INFINITY,
            ind: usize::MAX,
            max_lb: prof.max_lb_at(std_j),
            max_dist: if prof.is_full() { 0.0 } else { f64::INFINITY },
            entries: 0,
            distances: 0,
        };
        let lazy = ratio > 0.0 && !is_flat(std_j, mean_j);
        if lazy && from_l != prof.anchor_l {
            prof.sort_for_scan();
        }
        // The key threshold of the skip rule: `+∞` until a distance is known.
        let mut gate = f64::INFINITY;
        let mut skipped = false;
        for e in prof.entries_mut().iter_mut().rev() {
            let i = e.neighbor();
            if !e.is_live() || i >= ndp || i.abs_diff(j) < self.radius {
                e.qt = f64::NAN;
                row.max_dist = f64::INFINITY;
                continue;
            }
            let mut qt = e.qt;
            for step in from_l..l {
                qt += t[j + step] * t[i + step];
            }
            e.qt = qt;
            row.entries += 1;
            if e.lb_key() > gate {
                skipped = true;
                continue;
            }
            let dist = dist_from_qt(qt, l, self.means[i], self.stds[i], mean_j, std_j);
            row.distances += 1;
            row.max_dist = row.max_dist.max(dist);
            // Ties resolve to the smaller neighbour, so the row's answer
            // does not depend on the heap's internal layout (which varies
            // with harvest order).
            if dist < row.min_dist || (dist == row.min_dist && i < row.ind) {
                row.min_dist = dist;
                row.ind = i;
                if lazy {
                    // LB > reach  ⇔  sqrt(key) · ratio > reach.
                    let reach = dist + dist * SKIP_REL_MARGIN + SKIP_ABS_MARGIN;
                    let base = reach / ratio;
                    gate = base * base;
                }
            }
        }
        if skipped && row.max_dist.is_finite() {
            row.max_dist = f64::NAN;
        }
        prof.current_l = l;
        row
    }
}

/// Per-chunk accumulator of the first pass; chunks are merged in row order,
/// so the result is identical to the sequential scan.
struct AdvanceOut {
    min_dist_abs: f64,
    min_lb_abs: f64,
    non_valid: Vec<(usize, f64)>,
}

/// First pass of Algorithm 4 over rows `[chunk_start, chunk_start + len)`:
/// advances each profile's stored entries to the table's length and
/// classifies the row as valid (exact minimum written to `sub_mp`/`ip`) or
/// non-valid; `hint` gets each row's [`RowAdvance::max_dist`]. Rows are
/// mutually independent, so the pass chunks freely; the per-row arithmetic
/// is identical regardless of the chunking, keeping threaded runs bitwise
/// equal to sequential ones.
///
/// An enabled recorder gets the chunk's Fig. 9 margins in one batch and the
/// entries walked and distances computed as two counters; it reads what
/// the advance computes anyway and does not change how much it computes.
fn advance_rows(
    table: &LengthTable<'_>,
    chunk: &mut [PartialProfile],
    chunk_start: usize,
    sub_mp: &mut [f64],
    ip: &mut [usize],
    hint: &mut [f64],
    recorder: &SharedRecorder,
) -> AdvanceOut {
    let mut out = AdvanceOut {
        min_dist_abs: f64::INFINITY,
        min_lb_abs: f64::INFINITY,
        non_valid: Vec::new(),
    };
    let recording = recorder.enabled();
    let mut margins = Vec::with_capacity(if recording { chunk.len() } else { 0 });
    let (mut entries, mut distances) = (0usize, 0usize);
    // Normaliser for the Fig. 9 margin: distances live in [0, 2√ℓ].
    let margin_norm = 2.0 * (table.l as f64).sqrt();
    for (k, prof) in chunk.iter_mut().enumerate() {
        let j = chunk_start + k;
        let row = table.advance_row(j, prof);
        let (min_dist, max_lb) = (row.min_dist, row.max_lb);
        hint[k] = row.max_dist;
        entries += row.entries;
        distances += row.distances;
        if recording {
            // Fig. 9 margin, normalised by the distance range; an unfilled
            // heap (maxLB = +∞, profile complete) overflows the histogram's
            // top bucket and still counts as resolvable.
            margins.push(if max_lb.is_infinite() && min_dist.is_infinite() {
                0.0
            } else {
                (max_lb - min_dist) / margin_norm
            });
        }
        if min_dist <= max_lb {
            // Paper line 16: minDist is the true row minimum.
            sub_mp[k] = min_dist;
            ip[k] = row.ind;
            if min_dist < out.min_dist_abs {
                out.min_dist_abs = min_dist;
            }
        } else {
            // Paper lines 20–23: unknown row minimum, but it is ≥ maxLB.
            out.min_lb_abs = out.min_lb_abs.min(max_lb);
            out.non_valid.push((j, max_lb));
        }
    }
    if recording {
        recorder.observe_many("core.lb.margin", &margins);
        recorder.add("core.submp.entries", entries as u64);
        recorder.add("core.submp.distances", distances as u64);
    }
    out
}

/// Advances all partial profiles to `new_l` and attempts to derive the
/// motif of that length without recomputing the matrix profile
/// (paper Algorithm 4). Sequential; see [`compute_sub_mp_threaded`].
pub fn compute_sub_mp(
    ps: &ProfiledSeries,
    partials: &mut [PartialProfile],
    new_l: usize,
    policy: ExclusionPolicy,
) -> SubMpResult {
    compute_sub_mp_threaded(ps, partials, new_l, policy, 1)
}

/// [`compute_sub_mp`] with the first pass split across `threads` workers
/// (0 = all available cores). Each chunk owns disjoint slices of
/// `sub_mp`/`ip`/`partials` and reduces its own
/// `minDistAbs`/`minLBAbs`/non-valid list; the reductions merge in row
/// order, so the output is identical to the sequential pass. The
/// last-chance refinement (paper lines 27–37) stays sequential — it touches
/// few rows by construction.
pub fn compute_sub_mp_threaded(
    ps: &ProfiledSeries,
    partials: &mut [PartialProfile],
    new_l: usize,
    policy: ExclusionPolicy,
    threads: usize,
) -> SubMpResult {
    compute_sub_mp_threaded_with(ps, partials, new_l, policy, threads, &SharedRecorder::noop())
}

/// [`compute_sub_mp_threaded`] with instrumentation. With an enabled
/// recorder, the advance pass records per-row pruning margins
/// (`core.lb.margin`, normalised by the `2√ℓ` distance range — Fig. 9) and
/// the live entries it walked and the distances it computed
/// (`core.submp.entries`, `core.submp.distances`: their gap is what the
/// skip rule saved); the merge records `core.lb.valid_rows`/
/// `core.lb.nonvalid_rows` counters, the last-chance pass records
/// `core.lb.refined_rows`, one `mp.mass.calls` per recomputed row and the
/// refined rows' harvest under the `core.harvest.*` counters, and the whole
/// first pass is timed into `core.submp.advance_us`. The recorder only
/// reads: the advance skips the same distances and the outputs are bitwise
/// identical with any recorder. Fig. 10's tightness, which needs every
/// distance, is measured by [`lb_probe`](crate::instrument::lb_probe).
pub fn compute_sub_mp_threaded_with(
    ps: &ProfiledSeries,
    partials: &mut [PartialProfile],
    new_l: usize,
    policy: ExclusionPolicy,
    threads: usize,
    recorder: &SharedRecorder,
) -> SubMpResult {
    let mut ws = Workspace::new();
    compute_sub_mp_threaded_with_ws(ps, partials, new_l, policy, threads, recorder, &mut ws)
}

/// [`compute_sub_mp_threaded_with`] over a caller-held [`Workspace`]: the
/// last-chance refinement re-seeds each recomputed row's dot-product vector
/// through the workspace's FFT plan cache ([`Workspace::self_qt`], bitwise
/// identical to a fresh-plan seed), so a driver walking a length range pays
/// for each FFT size once.
///
/// When the motif is not certified (`found_motif == false`), the call
/// leaves a [`HarvestHint`] in the workspace: per row, the largest advanced
/// distance over its `p` entries (`+∞` when the heap is not full or an
/// entry went invalid). The fallback
/// [`compute_matrix_profile_with_ws`](crate::compute_matrix_profile_with_ws)
/// at `new_l` on the same workspace seeds its harvest gates from it. Any
/// earlier hint is consumed.
#[allow(clippy::too_many_arguments)] // recorder + workspace ride along with the row-chunk knobs
pub fn compute_sub_mp_threaded_with_ws(
    ps: &ProfiledSeries,
    partials: &mut [PartialProfile],
    new_l: usize,
    policy: ExclusionPolicy,
    threads: usize,
    recorder: &SharedRecorder,
    ws: &mut Workspace,
) -> SubMpResult {
    // A stale hint must not survive; an unconsumed one lends its buffer.
    let mut hint = ws.take_harvest_hint().map(|h| h.max_dist).unwrap_or_default();
    let ndp = ps.num_subsequences(new_l);
    if ndp == 0 {
        // No subsequences at this length: vacuously solved, nothing to do.
        return SubMpResult {
            found_motif: true,
            sub_mp: Vec::new(),
            ip: Vec::new(),
            valid_rows: 0,
            nonvalid_rows: 0,
            recomputed_rows: 0,
        };
    }
    if partials.len() < ndp {
        // Not enough harvested profiles to certify anything (empty or
        // truncated `listDP`): report every row unknown and force the
        // driver's full-recomputation fallback instead of panicking.
        return SubMpResult {
            found_motif: false,
            sub_mp: vec![f64::NAN; ndp],
            ip: vec![usize::MAX; ndp],
            valid_rows: 0,
            nonvalid_rows: ndp,
            recomputed_rows: 0,
        };
    }
    let mut sub_mp = vec![f64::NAN; ndp];
    let mut ip = vec![usize::MAX; ndp];
    // The last-chance budget divides by `p`; derive it from the largest
    // retained capacity so heterogeneous (or zero-capacity) profiles cannot
    // inflate the budget or divide by zero.
    let p = partials[..ndp].iter().map(|pr| pr.capacity()).max().unwrap_or(1);

    // Every row's hint bound is written by the advance; the hint is
    // published only when the length is not certified.
    hint.clear();
    hint.resize(ndp, 0.0);
    let (mut means, mut stds) = (Vec::new(), Vec::new());
    let span = valmod_obs::span!(recorder, "core.submp.advance_us");
    ps.fill_stats(new_l, ndp, &mut means, &mut stds);
    let table = &LengthTable::new(ps, new_l, &policy, &means, &stds);
    let chunk_outs: Vec<AdvanceOut> = {
        let chunks = row_chunks(ndp, threads);
        let last = chunks.len() - 1;
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            let mut mp_rest: &mut [f64] = &mut sub_mp;
            let mut ip_rest: &mut [usize] = &mut ip;
            let mut hint_rest: &mut [f64] = &mut hint;
            let mut pr_rest: &mut [PartialProfile] = &mut partials[..ndp];
            let mut own = None;
            for (i, (chunk_start, len)) in chunks.into_iter().enumerate() {
                let (mp_chunk, mp_tail) = mp_rest.split_at_mut(len);
                let (ip_chunk, ip_tail) = ip_rest.split_at_mut(len);
                let (hint_chunk, hint_tail) = hint_rest.split_at_mut(len);
                let (pr_chunk, pr_tail) = pr_rest.split_at_mut(len);
                mp_rest = mp_tail;
                ip_rest = ip_tail;
                hint_rest = hint_tail;
                pr_rest = pr_tail;
                let mut work = move || {
                    advance_rows(
                        table,
                        pr_chunk,
                        chunk_start,
                        mp_chunk,
                        ip_chunk,
                        hint_chunk,
                        recorder,
                    )
                };
                // The last chunk runs on this thread: one spawn fewer at
                // every thread count, and none at all for a single chunk.
                if i == last {
                    own = Some(work());
                } else {
                    handles.push(scope.spawn(work));
                }
            }
            let mut outs: Vec<AdvanceOut> =
                handles.into_iter().map(|h| h.join().expect("sub-MP worker panicked")).collect();
            outs.extend(own);
            outs
        })
    };
    drop(span);

    let mut min_dist_abs = f64::INFINITY;
    let mut min_lb_abs = f64::INFINITY;
    let mut non_valid: Vec<(usize, f64)> = Vec::new();
    for out in chunk_outs {
        min_dist_abs = min_dist_abs.min(out.min_dist_abs);
        min_lb_abs = min_lb_abs.min(out.min_lb_abs);
        non_valid.extend(out.non_valid);
    }

    let mut res = SubMpResult {
        found_motif: min_dist_abs < min_lb_abs,
        sub_mp,
        ip,
        valid_rows: ndp - non_valid.len(),
        nonvalid_rows: non_valid.len(),
        recomputed_rows: 0,
    };
    let mut refined = HarvestStats::default();

    // Paper lines 27–37: the last chance to avoid a full matrix-profile
    // recomputation — refine only the non-valid rows whose bound leaves room
    // below the best-so-far, provided there are few enough of them.
    if !res.found_motif && non_valid.len() < ndp / p.max(1) {
        for &(j, lb_max) in &non_valid {
            if lb_max < min_dist_abs {
                refined.merge(refine_rows(ps, partials, new_l, &policy, &[j], &mut res, ws));
                min_dist_abs = min_dist_abs.min(res.sub_mp[j]);
            }
        }
        res.found_motif = true;
    }

    if recorder.enabled() {
        recorder.add("core.lb.valid_rows", res.valid_rows as u64);
        recorder.add("core.lb.nonvalid_rows", res.nonvalid_rows as u64);
        let recomputed = res.recomputed_rows as u64;
        if recomputed > 0 {
            recorder.add("core.lb.refined_rows", recomputed);
            // Each refined row re-seeds its dot-product vector with one FFT.
            recorder.add("mp.mass.calls", recomputed);
            // The refined rows' harvest, under the same counters as a pass.
            refined.record(recorder);
        }
    }

    if !res.found_motif {
        // The seed hint for the fallback harvest, filled by the advance: a
        // full heap whose entries all stayed valid holds p distinct real
        // pairs at most this far apart. No row was refined (that would
        // have certified the length), so every bound is still current, and
        // a row the lazy advance skipped has its dot products advanced.
        for (j, bound) in hint.iter_mut().enumerate() {
            if bound.is_nan() {
                *bound = table.max_dist(j, &partials[j]);
            }
        }
        ws.set_harvest_hint(HarvestHint { l: new_l, p, max_dist: hint });
    }
    res
}

/// Recomputes each of `rows` exactly at length `l` (paper Alg. 4 lines
/// 29–33), one row at a time: re-seeds the row's dot products through
/// `ws`'s FFT plan cache ([`Workspace::self_qt`]), takes its distance
/// profile, re-anchors its partial profile at `l` and harvests the row into
/// it ([`harvest_row`]), and writes the exact row minimum into
/// `res.sub_mp`/`res.ip` (`+∞` when every pair is excluded), counting the
/// row in `res.recomputed_rows`. Returns the rows' harvest accounting.
pub(crate) fn refine_rows(
    ps: &ProfiledSeries,
    partials: &mut [PartialProfile],
    l: usize,
    policy: &ExclusionPolicy,
    rows: &[usize],
    res: &mut SubMpResult,
    ws: &mut Workspace,
) -> HarvestStats {
    let mut stats = HarvestStats::default();
    let mut dp = Vec::new();
    for &j in rows {
        let qt = ws.self_qt(ps, j, l);
        dp_from_qt_into(ps, qt, j, l, policy, &mut dp);
        let prof = &mut partials[j];
        prof.reanchor(l, ps.std(j, l));
        stats.merge(harvest_row(ps, prof, &dp, qt, j, l));
        (res.sub_mp[j], res.ip[j]) = match profile_min(&dp) {
            Some((arg, d)) => (d, arg),
            None => (f64::INFINITY, usize::MAX),
        };
        res.recomputed_rows += 1;
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute_mp::compute_matrix_profile;
    use valmod_data::generators::{plant_motif, random_walk, sine_mixture};
    use valmod_mp::stomp::stomp;

    fn check_against_stomp(series: &[f64], l_min: usize, steps: usize, p: usize) {
        let ps = ProfiledSeries::from_values(series).unwrap();
        let policy = ExclusionPolicy::HALF;
        let mut state = compute_matrix_profile(&ps, l_min, p, policy).unwrap();
        for l in (l_min + 1)..=(l_min + steps) {
            let res = compute_sub_mp(&ps, &mut state.partials, l, policy);
            let oracle = stomp(&ps, l, policy).unwrap();
            let oracle_min = oracle.motif_pair().map(|(_, _, d)| d);
            if res.found_motif {
                let got = res.min_entry().map(|(_, d)| d);
                match (got, oracle_min) {
                    (Some(g), Some(o)) => {
                        assert!((g - o).abs() < 1e-6, "l={l}: sub-MP motif {g} vs STOMP {o}")
                    }
                    (None, None) => {}
                    other => panic!("l={l}: motif presence mismatch {other:?}"),
                }
            }
            // Every *known* row entry must equal the true row minimum.
            for (j, &d) in res.sub_mp.iter().enumerate() {
                if d.is_nan() {
                    continue;
                }
                let truth = oracle.mp[j];
                if d.is_infinite() || truth.is_infinite() {
                    assert_eq!(d.is_infinite(), truth.is_infinite(), "l={l} row {j}");
                } else {
                    assert!((d - truth).abs() < 1e-6, "l={l} row {j}: {d} vs {truth}");
                }
            }
            // When the fallback would be needed, emulate the driver: rebuild.
            if !res.found_motif {
                state = compute_matrix_profile(&ps, l, p, policy).unwrap();
            }
        }
    }

    #[test]
    fn sub_mp_is_exact_on_random_walks() {
        check_against_stomp(&random_walk(350, 41), 16, 12, 5);
    }

    #[test]
    fn sub_mp_is_exact_on_periodic_data() {
        let series = sine_mixture(400, &[(0.02, 1.0), (0.05, 0.4)], 0.05, 13);
        check_against_stomp(&series, 20, 10, 6);
    }

    #[test]
    fn sub_mp_is_exact_with_planted_motifs() {
        let (series, _) = plant_motif(2000, 48, 3, 0.02, 17);
        check_against_stomp(&series, 48, 16, 8);
    }

    #[test]
    fn sub_mp_is_exact_with_tiny_p() {
        // p = 1 stresses the non-valid path and the last-chance refinement.
        check_against_stomp(&random_walk(300, 43), 16, 10, 1);
    }

    #[test]
    fn sub_mp_tracks_shrinking_profile_count() {
        let series = random_walk(200, 47);
        let ps = ProfiledSeries::from_values(&series).unwrap();
        let policy = ExclusionPolicy::HALF;
        let mut state = compute_matrix_profile(&ps, 50, 4, policy).unwrap();
        let res = compute_sub_mp(&ps, &mut state.partials, 51, policy);
        assert_eq!(res.sub_mp.len(), 200 - 51 + 1);
        assert_eq!(res.valid_rows + res.nonvalid_rows, res.sub_mp.len());
    }

    #[test]
    fn threaded_first_pass_matches_sequential() {
        let series = random_walk(400, 53);
        let ps = ProfiledSeries::from_values(&series).unwrap();
        let policy = ExclusionPolicy::HALF;
        for threads in [1usize, 2, 3, 7, 16] {
            // Fresh state per thread count: the advance mutates partials.
            let mut seq = compute_matrix_profile(&ps, 24, 5, policy).unwrap();
            let mut par = seq.clone();
            for l in 25..=30 {
                let a = compute_sub_mp(&ps, &mut seq.partials, l, policy);
                let b = compute_sub_mp_threaded(&ps, &mut par.partials, l, policy, threads);
                assert_eq!(a.found_motif, b.found_motif, "threads={threads} l={l}");
                assert_eq!(a.valid_rows, b.valid_rows, "threads={threads} l={l}");
                assert_eq!(a.nonvalid_rows, b.nonvalid_rows, "threads={threads} l={l}");
                assert_eq!(a.recomputed_rows, b.recomputed_rows, "threads={threads} l={l}");
                for (j, (&x, &y)) in a.sub_mp.iter().zip(&b.sub_mp).enumerate() {
                    assert!(
                        x.to_bits() == y.to_bits(),
                        "threads={threads} l={l} row {j}: {x} vs {y}"
                    );
                }
                assert_eq!(a.ip, b.ip, "threads={threads} l={l}");
            }
        }
    }

    #[test]
    fn recording_does_not_perturb_the_advance() {
        use valmod_obs::Registry;
        let series = random_walk(300, 59);
        let ps = ProfiledSeries::from_values(&series).unwrap();
        let policy = ExclusionPolicy::HALF;
        let mut plain = compute_matrix_profile(&ps, 20, 4, policy).unwrap();
        let mut recorded = plain.clone();
        let registry = Registry::new();
        crate::instrument::register_probe_histograms(&registry);
        let rec = SharedRecorder::from(registry.clone());
        let (mut plain_distances, mut plain_entries) = (0, 0);
        for l in 21..=26 {
            let (d, e) = lazy_work(&ps, &plain.partials, l);
            (plain_distances, plain_entries) = (plain_distances + d, plain_entries + e);
            let a = compute_sub_mp(&ps, &mut plain.partials, l, policy);
            let b = compute_sub_mp_threaded_with(&ps, &mut recorded.partials, l, policy, 2, &rec);
            assert_eq!(a.found_motif, b.found_motif, "l={l}");
            for (j, (&x, &y)) in a.sub_mp.iter().zip(&b.sub_mp).enumerate() {
                assert!(x.to_bits() == y.to_bits(), "l={l} row {j}: {x} vs {y}");
            }
        }
        let snap = registry.snapshot();
        let rows: u64 = (21..=26u64).map(|l| 300 - l + 1).sum();
        // One margin observation per advanced row; Fig. 10's tightness is
        // the probe's, not the pass's.
        assert_eq!(snap.histogram("core.lb.margin").unwrap().count, rows);
        assert!(snap.histogram("core.lb.tlb").is_none());
        assert_eq!(
            snap.counter("core.lb.valid_rows").unwrap()
                + snap.counter("core.lb.nonvalid_rows").unwrap(),
            rows
        );
        assert_eq!(snap.histogram("core.submp.advance_us").unwrap().count, 6);
        // The recorded walk computes exactly the distances the unrecorded
        // one does, and the skip rule still skips under the recorder.
        let distances = snap.counter("core.submp.distances").unwrap();
        assert_eq!(distances, plain_distances as u64);
        assert_eq!(snap.counter("core.submp.entries").unwrap(), plain_entries as u64);
        assert!(plain_distances < plain_entries, "{plain_distances} of {plain_entries}");
    }

    #[test]
    fn refined_rows_count_in_the_harvest_counters() {
        use valmod_obs::Registry;
        // This periodic series at p = 2 reaches the last-chance refinement.
        let series = sine_mixture(400, &[(0.02, 1.0), (0.05, 0.4)], 0.05, 2);
        let ps = ProfiledSeries::from_values(&series).unwrap();
        let (p, policy) = (2, ExclusionPolicy::HALF);
        let mut state = compute_matrix_profile(&ps, 16, p, policy).unwrap();
        let mut refined_total = 0;
        for l in 17..=30 {
            let registry = Registry::new();
            let rec = SharedRecorder::from(registry.clone());
            let mut ws = Workspace::new();
            let res = compute_sub_mp_threaded_with_ws(
                &ps,
                &mut state.partials,
                l,
                policy,
                1,
                &rec,
                &mut ws,
            );
            let snap = registry.snapshot();
            let offers = snap.counter("core.harvest.offers");
            let accepted = snap.counter("core.harvest.accepted");
            let refined = res.recomputed_rows as u64;
            if refined == 0 {
                assert_eq!((offers, accepted), (None, None), "l={l}");
            } else {
                let (offers, accepted) = (offers.unwrap(), accepted.unwrap());
                // Each refined row starts from an empty heap, so its first
                // finite cell is kept.
                assert!(accepted >= refined && accepted <= offers, "l={l}");
                assert!(offers <= refined * res.sub_mp.len() as u64, "l={l}");
                assert_eq!(snap.counter("core.harvest.seed_reruns"), Some(0), "l={l}");
            }
            refined_total += refined;
            if !res.found_motif {
                state = compute_matrix_profile(&ps, l, p, policy).unwrap();
            }
        }
        assert!(refined_total > 0, "construction no longer reaches the refinement");
    }

    #[test]
    fn zero_subsequences_is_vacuously_solved() {
        let ps = ProfiledSeries::from_values(&random_walk(50, 3)).unwrap();
        let mut partials: Vec<PartialProfile> = Vec::new();
        let res = compute_sub_mp(&ps, &mut partials, 60, ExclusionPolicy::HALF);
        assert!(res.found_motif);
        assert!(res.sub_mp.is_empty());
        assert_eq!(res.valid_rows + res.nonvalid_rows, 0);
    }

    #[test]
    fn missing_partials_force_fallback_instead_of_panicking() {
        let ps = ProfiledSeries::from_values(&random_walk(100, 5)).unwrap();
        // Empty listDP: nothing can be certified.
        let mut empty: Vec<PartialProfile> = Vec::new();
        let res = compute_sub_mp(&ps, &mut empty, 20, ExclusionPolicy::HALF);
        assert!(!res.found_motif);
        assert_eq!(res.nonvalid_rows, res.sub_mp.len());
        assert_eq!(res.valid_rows, 0);
        assert!(res.sub_mp.iter().all(|d| d.is_nan()));
        // Truncated listDP (fewer profiles than rows): same contract.
        let mut state = compute_matrix_profile(&ps, 19, 3, ExclusionPolicy::HALF).unwrap();
        state.partials.truncate(10);
        let res = compute_sub_mp(&ps, &mut state.partials, 20, ExclusionPolicy::HALF);
        assert!(!res.found_motif);
        assert_eq!(res.valid_rows + res.nonvalid_rows, res.sub_mp.len());
    }

    #[test]
    fn heterogeneous_capacities_use_the_largest_p() {
        let ps = ProfiledSeries::from_values(&random_walk(200, 7)).unwrap();
        let policy = ExclusionPolicy::HALF;
        let mut state = compute_matrix_profile(&ps, 16, 4, policy).unwrap();
        // Simulate a profile rebuilt with a different capacity: must not
        // panic, and every known row must still be exact.
        let sigma = ps.std(0, 16);
        state.partials[0] = PartialProfile::new(0, 16, sigma, 9, state.partials.len());
        let res = compute_sub_mp(&ps, &mut state.partials, 17, policy);
        assert_eq!(res.valid_rows + res.nonvalid_rows, res.sub_mp.len());
        let oracle = stomp(&ps, 17, policy).unwrap();
        for (j, &d) in res.sub_mp.iter().enumerate() {
            if d.is_finite() {
                assert!((d - oracle.mp[j]).abs() < 1e-6, "row {j}");
            }
        }
    }

    /// A profile of `owner` at length `l` holding one entry per neighbour,
    /// each with its direct-sum dot product.
    fn profile_with(
        ps: &ProfiledSeries,
        owner: usize,
        l: usize,
        neighbors: &[usize],
    ) -> PartialProfile {
        let t = ps.centered();
        let rows = ps.num_subsequences(l);
        let mut prof = PartialProfile::new(owner, l, ps.std(owner, l), neighbors.len(), rows);
        for (k, &neighbor) in neighbors.iter().enumerate() {
            let qt = (0..l).map(|s| t[owner + s] * t[neighbor + s]).sum();
            prof.offer(DpEntry::new(neighbor, qt, k as f64));
        }
        prof
    }

    /// Advances `prof` to `l` through a freshly filled table.
    fn advance_to(ps: &ProfiledSeries, prof: &mut PartialProfile, l: usize) -> RowAdvance {
        let (mut means, mut stds) = (Vec::new(), Vec::new());
        ps.fill_stats(l, ps.num_subsequences(l), &mut means, &mut stds);
        LengthTable::new(ps, l, &ExclusionPolicy::HALF, &means, &stds).advance_row(prof.owner, prof)
    }

    #[test]
    fn advance_row_tracks_the_distance_exactly() {
        use valmod_mp::distance::zdist_naive;
        let series = random_walk(300, 5);
        let ps = ProfiledSeries::from_values(&series).unwrap();
        let (owner, neighbor, l0) = (20usize, 150usize, 16usize);
        let mut prof = profile_with(&ps, owner, l0, &[neighbor]);
        for l in (l0 + 1)..(l0 + 40) {
            let row = advance_to(&ps, &mut prof, l);
            let oracle = zdist_naive(&series[owner..owner + l], &series[neighbor..neighbor + l]);
            assert!((row.min_dist - oracle).abs() < 1e-7, "l={l}: {} vs {oracle}", row.min_dist);
            assert_eq!((row.ind, prof.current_l), (neighbor, l));
        }
    }

    #[test]
    fn advance_row_drops_a_neighbour_that_slides_off_the_end() {
        let ps = ProfiledSeries::from_values(&random_walk(100, 1)).unwrap();
        // Neighbour 80 + length 21 > 100: invalid at ℓ = 21, for good.
        let mut prof = profile_with(&ps, 0, 20, &[80, 40]);
        let row = advance_to(&ps, &mut prof, 21);
        let dead: Vec<usize> =
            prof.entries().iter().filter(|e| !e.is_live()).map(DpEntry::neighbor).collect();
        assert_eq!(dead, vec![80]);
        assert_eq!(row.ind, 40);
        assert!(row.max_dist.is_infinite(), "a dead entry voids the row's hint");
    }

    #[test]
    fn advance_row_drops_a_pair_the_grown_exclusion_zone_swallows() {
        let ps = ProfiledSeries::from_values(&random_walk(200, 2)).unwrap();
        // |owner − neighbour| = 12: valid at ℓ = 21 (radius 11), trivial at
        // ℓ = 25 (radius 13).
        let mut prof = profile_with(&ps, 0, 20, &[12]);
        let row = advance_to(&ps, &mut prof, 21);
        assert!(row.min_dist.is_finite() && row.max_dist.is_finite());
        let row = advance_to(&ps, &mut prof, 25);
        assert!(row.min_dist.is_infinite() && !prof.entries()[0].is_live());
    }

    /// The advance as it was before the length table, kept as the reference:
    /// every statistic re-derived per entry from the prefix sums, validity
    /// from the series end and the policy, every distance computed. Returns
    /// the new distance, or `None` (and marks the entry dead) when the pair
    /// is gone.
    fn reference_entry(
        ps: &ProfiledSeries,
        entry: &mut DpEntry,
        owner: usize,
        from_l: usize,
        new_l: usize,
        policy: &ExclusionPolicy,
    ) -> Option<f64> {
        let n = ps.len();
        let i = entry.neighbor();
        if i + new_l > n || owner + new_l > n || policy.is_trivial(owner, i, new_l) {
            entry.qt = f64::NAN;
            return None;
        }
        let t = ps.centered();
        let mut qt = entry.qt;
        for step in from_l..new_l {
            qt += t[owner + step] * t[i + step];
        }
        entry.qt = qt;
        Some(dist_from_qt(
            qt,
            new_l,
            ps.mean_c(i, new_l),
            ps.std(i, new_l),
            ps.mean_c(owner, new_l),
            ps.std(owner, new_l),
        ))
    }

    /// The reference first pass: rows advanced with [`reference_entry`],
    /// classified, and the hint taken from every entry's distance.
    struct ReferencePass {
        partials: Vec<PartialProfile>,
        sub_mp: Vec<f64>,
        ip: Vec<usize>,
        valid: Vec<bool>,
        hint: Vec<f64>,
        /// Entries lost to the series end, to the grown exclusion zone.
        slid_off: usize,
        excluded: usize,
    }

    fn reference_pass(
        ps: &ProfiledSeries,
        partials: &[PartialProfile],
        new_l: usize,
        policy: &ExclusionPolicy,
    ) -> ReferencePass {
        let ndp = ps.num_subsequences(new_l);
        let mut pass = ReferencePass {
            partials: partials[..ndp].to_vec(),
            sub_mp: vec![f64::NAN; ndp],
            ip: vec![usize::MAX; ndp],
            valid: vec![false; ndp],
            hint: vec![0.0; ndp],
            slid_off: 0,
            excluded: 0,
        };
        for (j, prof) in pass.partials.iter_mut().enumerate() {
            let sigma_new = ps.std(j, new_l);
            let from_l = prof.current_l;
            let max_lb = prof.max_lb_at(sigma_new);
            let (mut min_dist, mut ind) = (f64::INFINITY, usize::MAX);
            let mut max_dist = if prof.is_full() { 0.0f64 } else { f64::INFINITY };
            for e in prof.entries_mut() {
                if !e.is_live() {
                    max_dist = f64::INFINITY;
                    continue;
                }
                match reference_entry(ps, e, j, from_l, new_l, policy) {
                    Some(dist) => {
                        max_dist = max_dist.max(dist);
                        if dist < min_dist || (dist == min_dist && e.neighbor() < ind) {
                            min_dist = dist;
                            ind = e.neighbor();
                        }
                    }
                    None => {
                        max_dist = f64::INFINITY;
                        if e.neighbor() >= ndp {
                            pass.slid_off += 1;
                        } else {
                            pass.excluded += 1;
                        }
                    }
                }
            }
            prof.current_l = new_l;
            pass.hint[j] = max_dist;
            if min_dist <= max_lb {
                (pass.sub_mp[j], pass.ip[j], pass.valid[j]) = (min_dist, ind, true);
            }
        }
        pass
    }

    /// Every entry of `prof` as (neighbour, qt bits, lb_key bits), sorted by
    /// neighbour: the retained set whatever the row's layout.
    fn entry_bits(prof: &PartialProfile) -> Vec<(usize, u64, u64)> {
        let mut v: Vec<_> = (prof.entries().iter())
            .map(|e| (e.neighbor(), e.qt().to_bits(), e.lb_key().to_bits()))
            .collect();
        v.sort_unstable();
        v
    }

    /// Advances `partials` to `new_l` with ComputeSubMP, with or without a
    /// recorder, and checks it against [`reference_pass`] bit for bit: `sub_mp`/`ip`, the row split, every
    /// entry's `qt` (`NaN` when dead), and the hint. Rows the last-chance
    /// pass refined are re-anchored, so only their count is checked.
    /// Returns whether the length was certified and the reference pass's
    /// invalidation counts.
    fn assert_advance_matches_reference(
        ps: &ProfiledSeries,
        partials: &mut [PartialProfile],
        new_l: usize,
        (threads, recorded): (usize, bool),
        what: &str,
    ) -> (bool, usize, usize) {
        let policy = ExclusionPolicy::HALF;
        let reference = reference_pass(ps, partials, new_l, &policy);
        let mut ws = Workspace::new();
        let recorder = if recorded {
            SharedRecorder::from(valmod_obs::Registry::new())
        } else {
            SharedRecorder::noop()
        };
        let res = compute_sub_mp_threaded_with_ws(
            ps, partials, new_l, policy, threads, &recorder, &mut ws,
        );
        let what = format!("{what} l={new_l} threads={threads} recorded={recorded}");
        let valid = reference.valid.iter().filter(|&&v| v).count();
        assert_eq!((res.valid_rows, res.nonvalid_rows), (valid, reference.valid.len() - valid));
        let mut refined = 0;
        for (j, want) in reference.partials.iter().enumerate() {
            if !reference.valid[j] && !res.sub_mp[j].is_nan() {
                refined += 1;
                continue;
            }
            let (got_d, want_d) = (res.sub_mp[j], reference.sub_mp[j]);
            assert_eq!(got_d.to_bits(), want_d.to_bits(), "{what} row {j}: {got_d} vs {want_d}");
            assert_eq!(res.ip[j], reference.ip[j], "{what} row {j}: ip");
            let got = &partials[j];
            assert_eq!(got.current_l, want.current_l, "{what} row {j}: current_l");
            assert_eq!(entry_bits(got), entry_bits(want), "{what} row {j}: entries");
        }
        assert_eq!(refined, res.recomputed_rows, "{what}: refined rows");
        match ws.take_harvest_hint() {
            Some(hint) => {
                assert!(!res.found_motif, "{what}: a certified length leaves no hint");
                assert_eq!(hint.l, new_l, "{what}: hint length");
                let bits = |v: &[f64]| v.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&hint.max_dist), bits(&reference.hint), "{what}: hint");
            }
            None => assert!(res.found_motif, "{what}: an uncertified length leaves a hint"),
        }
        (res.found_motif, reference.slid_off, reference.excluded)
    }

    /// The distances an advance of `partials` to `l` computes, and the
    /// entries valid there: the skip rule's effect, on a copy.
    fn lazy_work(ps: &ProfiledSeries, partials: &[PartialProfile], l: usize) -> (usize, usize) {
        let ndp = ps.num_subsequences(l);
        let (mut means, mut stds) = (Vec::new(), Vec::new());
        ps.fill_stats(l, ndp, &mut means, &mut stds);
        let table = LengthTable::new(ps, l, &ExclusionPolicy::HALF, &means, &stds);
        let (mut computed, mut valid) = (0, 0);
        for (j, prof) in partials[..ndp].iter().enumerate() {
            let row = table.advance_row(j, &mut prof.clone());
            (computed, valid) = (computed + row.distances, valid + row.entries);
        }
        (computed, valid)
    }

    #[test]
    fn lazy_and_recorded_advances_are_bit_identical_to_the_per_entry_formula() {
        // A random walk with two flat stretches (flat owners and flat
        // neighbours both reach the heaps, at key 0, and defeat the bound),
        // a periodic series the bound certifies, and a random walk with a
        // planted near-duplicate pair (a row minimum near 0, where the skip
        // rule's absolute slack decides).
        let mut flat = random_walk(480, 61);
        for i in (120..170).chain(300..330) {
            flat[i] = if i < 200 { 1.25 } else { -0.5 };
        }
        let periodic = sine_mixture(480, &[(0.02, 1.0), (0.05, 0.4)], 0.05, 13);
        let mut planted = random_walk(480, 67);
        for k in 0..60 {
            planted[350 + k] = planted[40 + k] + 1e-9 * k as f64;
        }
        let policy = ExclusionPolicy::HALF;
        let (mut slid_off, mut excluded, mut multi_steps) = (0, 0, 0);
        let (mut certified, mut fallbacks) = (0, 0);
        let (mut computed, mut valid) = (0, 0);
        for (name, series) in [("flat", &flat), ("periodic", &periodic), ("planted", &planted)] {
            let ps = ProfiledSeries::from_values(series).unwrap();
            for p in [1usize, 50] {
                for (threads, recorded) in [(1usize, false), (3, false), (1, true), (3, true)] {
                    let what = format!("{name} p={p}");
                    let mut state = compute_matrix_profile(&ps, 16, p, policy).unwrap();
                    let mut l = 16;
                    while l < 40 {
                        // Every fourth advance skips lengths, so `current_l`
                        // trails the new length by several steps.
                        let step = if l % 4 == 0 { 3 } else { 1 };
                        multi_steps += usize::from(step > 1);
                        l += step;
                        if !recorded {
                            let (c, v) = lazy_work(&ps, &state.partials, l);
                            (computed, valid) = (computed + c, valid + v);
                        }
                        let (found, s, e) = assert_advance_matches_reference(
                            &ps,
                            &mut state.partials,
                            l,
                            (threads, recorded),
                            &what,
                        );
                        slid_off += s;
                        excluded += e;
                        if found {
                            certified += 1;
                        } else {
                            fallbacks += 1;
                            state = compute_matrix_profile(&ps, l, p, policy).unwrap();
                        }
                    }
                }
            }
        }
        // The construction reaches every invalidation path, both the
        // certified and the hinted outcome, and skips distances.
        assert!(slid_off > 0 && excluded > 0 && multi_steps > 0, "{slid_off} {excluded}");
        assert!(certified > 0 && fallbacks > 0, "{certified} {fallbacks}");
        assert!(4 * computed < 3 * valid, "the skip rule computed {computed} of {valid} distances");
    }

    #[test]
    fn known_entries_counts_non_bottom() {
        let r = SubMpResult {
            found_motif: true,
            sub_mp: vec![1.0, f64::NAN, f64::INFINITY],
            ip: vec![2, usize::MAX, usize::MAX],
            valid_rows: 2,
            nonvalid_rows: 1,
            recomputed_rows: 0,
        };
        assert_eq!(r.known_entries(), 2);
        assert_eq!(r.min_entry(), Some((0, 1.0)));
    }
}
