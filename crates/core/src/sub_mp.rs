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

use valmod_mp::distance_profile::{dp_from_qt_into, profile_min};
use valmod_mp::exclusion::ExclusionPolicy;
use valmod_mp::parallel::row_chunks;
use valmod_mp::workspace::{HarvestHint, Workspace};
use valmod_mp::ProfiledSeries;
use valmod_obs::{Recorder, SharedRecorder};

use crate::harvest::{harvest_row, HarvestStats};
use crate::lb::{lb_scale, tightness};
use crate::profile::{update_dist_and_lb, EntryState, PartialProfile};

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

/// Per-chunk accumulator of the first pass; chunks are merged in row order,
/// so the result is identical to the sequential scan.
struct AdvanceOut {
    min_dist_abs: f64,
    min_lb_abs: f64,
    non_valid: Vec<(usize, f64)>,
}

/// First pass of Algorithm 4 over rows `[chunk_start, chunk_start + len)`:
/// advances each profile's stored entries to `new_l` (an `O(1)` update per
/// entry) and classifies the row as valid (exact minimum written to
/// `sub_mp`/`ip`) or non-valid. Rows are mutually independent, so the pass
/// chunks freely; the per-row arithmetic is identical regardless of the
/// chunking, keeping threaded runs bitwise equal to sequential ones.
#[allow(clippy::too_many_arguments)] // internal; the recorder rides along with the row-chunk state
fn advance_rows(
    ps: &ProfiledSeries,
    chunk: &mut [PartialProfile],
    chunk_start: usize,
    new_l: usize,
    policy: &ExclusionPolicy,
    sub_mp: &mut [f64],
    ip: &mut [usize],
    recorder: &SharedRecorder,
) -> AdvanceOut {
    let mut out = AdvanceOut {
        min_dist_abs: f64::INFINITY,
        min_lb_abs: f64::INFINITY,
        non_valid: Vec::new(),
    };
    let recording = recorder.enabled();
    // Normaliser for the Fig. 9 margin: distances live in [0, 2√ℓ].
    let margin_norm = 2.0 * (new_l as f64).sqrt();
    for (k, prof) in chunk.iter_mut().enumerate() {
        let j = chunk_start + k;
        let sigma_new = ps.std(j, new_l);
        let from_l = prof.current_l;
        let anchor_sigma = prof.anchor_sigma;
        let max_lb = prof.max_lb_at(sigma_new);
        let mut min_dist = f64::INFINITY;
        let mut ind = usize::MAX;
        let (mut tlb_sum, mut tlb_n) = (0.0f64, 0usize);
        for e in prof.entries_mut() {
            if e.dist.is_infinite() {
                continue; // invalidated at an earlier length — permanent
            }
            match update_dist_and_lb(ps, e, j, from_l, new_l, policy) {
                EntryState::Valid { dist } => {
                    // Ties resolve to the smaller neighbour, so the row's
                    // answer does not depend on the heap's internal layout
                    // (which varies with harvest order).
                    if dist < min_dist || (dist == min_dist && e.neighbor < ind) {
                        min_dist = dist;
                        ind = e.neighbor;
                    }
                    if recording {
                        // Fig. 10 tightness of the Eq. 2 bound for this pair.
                        let lb = lb_scale(e.lb_base(), anchor_sigma, sigma_new);
                        tlb_sum += tightness(lb, dist);
                        tlb_n += 1;
                    }
                }
                EntryState::Invalid => {}
            }
        }
        prof.current_l = new_l;
        if recording {
            // Fig. 9 margin, normalised by the distance range; an unfilled
            // heap (maxLB = +∞, profile complete) overflows the histogram's
            // top bucket and still counts as resolvable.
            let margin = if max_lb.is_infinite() && min_dist.is_infinite() {
                0.0
            } else {
                (max_lb - min_dist) / margin_norm
            };
            recorder.observe("core.lb.margin", margin);
            recorder.observe("core.lb.tlb", if tlb_n == 0 { 0.0 } else { tlb_sum / tlb_n as f64 });
        }
        if min_dist <= max_lb {
            // Paper line 16: minDist is the true row minimum.
            sub_mp[k] = min_dist;
            ip[k] = ind;
            if min_dist < out.min_dist_abs {
                out.min_dist_abs = min_dist;
            }
        } else {
            // Paper lines 20–23: unknown row minimum, but it is ≥ maxLB.
            out.min_lb_abs = out.min_lb_abs.min(max_lb);
            out.non_valid.push((j, max_lb));
        }
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
/// the mean tightness of the Eq. 2 lower bound (`core.lb.tlb` — Fig. 10);
/// the merge records `core.lb.valid_rows`/`core.lb.nonvalid_rows` counters,
/// the last-chance pass records `core.lb.refined_rows`, one
/// `mp.mass.calls` per recomputed row and the refined rows' harvest under
/// the `core.harvest.*` counters, and the whole first pass is timed
/// into `core.submp.advance_us`. The instrumentation only *reads* the
/// algorithm's state: outputs are bitwise identical with any recorder.
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
    // Recycle an earlier hint's buffer; a stale hint must not survive.
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

    let chunk_outs: Vec<AdvanceOut> = {
        let _span = valmod_obs::span!(recorder, "core.submp.advance_us");
        let chunks = row_chunks(ndp, threads);
        let last = chunks.len() - 1;
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            let mut mp_rest: &mut [f64] = &mut sub_mp;
            let mut ip_rest: &mut [usize] = &mut ip;
            let mut pr_rest: &mut [PartialProfile] = &mut partials[..ndp];
            let mut own = None;
            for (i, (chunk_start, len)) in chunks.into_iter().enumerate() {
                let (mp_chunk, mp_tail) = mp_rest.split_at_mut(len);
                let (ip_chunk, ip_tail) = ip_rest.split_at_mut(len);
                let (pr_chunk, pr_tail) = pr_rest.split_at_mut(len);
                mp_rest = mp_tail;
                ip_rest = ip_tail;
                pr_rest = pr_tail;
                let mut work = move || {
                    advance_rows(
                        ps,
                        pr_chunk,
                        chunk_start,
                        new_l,
                        &policy,
                        mp_chunk,
                        ip_chunk,
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

    let mut min_dist_abs = f64::INFINITY;
    let mut min_lb_abs = f64::INFINITY;
    let mut non_valid: Vec<(usize, f64)> = Vec::new();
    for out in chunk_outs {
        min_dist_abs = min_dist_abs.min(out.min_dist_abs);
        min_lb_abs = min_lb_abs.min(out.min_lb_abs);
        non_valid.extend(out.non_valid);
    }

    let valid_rows = ndp - non_valid.len();
    let nonvalid_rows = non_valid.len();
    let mut found = min_dist_abs < min_lb_abs;
    let mut recomputed = 0usize;
    let mut refined = HarvestStats::default();

    // Paper lines 27–37: the last chance to avoid a full matrix-profile
    // recomputation — refine only the non-valid rows whose bound leaves room
    // below the best-so-far, provided there are few enough of them.
    if !found && non_valid.len() < ndp / p.max(1) {
        let mut dp = Vec::with_capacity(ndp);
        for &(j, lb_max) in &non_valid {
            if lb_max < min_dist_abs {
                let qt = ws.self_qt(ps, j, new_l);
                dp_from_qt_into(ps, qt, j, new_l, &policy, &mut dp);
                let prof = &mut partials[j];
                prof.reanchor(new_l, ps.std(j, new_l));
                refined.merge(harvest_row(ps, prof, &dp, qt, j, new_l));
                match profile_min(&dp) {
                    Some((arg, d)) => {
                        sub_mp[j] = d;
                        ip[j] = arg;
                        if d < min_dist_abs {
                            min_dist_abs = d;
                        }
                    }
                    None => sub_mp[j] = f64::INFINITY,
                }
                recomputed += 1;
            }
        }
        found = true;
    }

    if recorder.enabled() {
        recorder.add("core.lb.valid_rows", valid_rows as u64);
        recorder.add("core.lb.nonvalid_rows", nonvalid_rows as u64);
        if recomputed > 0 {
            recorder.add("core.lb.refined_rows", recomputed as u64);
            // Each refined row re-seeds its dot-product vector with one FFT.
            recorder.add("mp.mass.calls", recomputed as u64);
            // The refined rows' harvest, under the same counters as a pass.
            refined.record(recorder);
        }
    }

    if !found {
        // The seed hint for the fallback harvest: a full heap whose entries
        // all stayed valid holds p distinct real pairs at most this far
        // apart (an invalid entry's distance is +∞).
        hint.clear();
        hint.extend(partials[..ndp].iter().map(|prof| {
            if prof.is_full() {
                prof.entries().iter().map(|e| e.dist).fold(0.0, f64::max)
            } else {
                f64::INFINITY
            }
        }));
        ws.set_harvest_hint(HarvestHint { l: new_l, p, max_dist: hint });
    }

    SubMpResult {
        found_motif: found,
        sub_mp,
        ip,
        valid_rows,
        nonvalid_rows,
        recomputed_rows: recomputed,
    }
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
        for l in 21..=26 {
            let a = compute_sub_mp(&ps, &mut plain.partials, l, policy);
            let b = compute_sub_mp_threaded_with(&ps, &mut recorded.partials, l, policy, 2, &rec);
            assert_eq!(a.found_motif, b.found_motif, "l={l}");
            for (j, (&x, &y)) in a.sub_mp.iter().zip(&b.sub_mp).enumerate() {
                assert!(x.to_bits() == y.to_bits(), "l={l} row {j}: {x} vs {y}");
            }
        }
        let snap = registry.snapshot();
        let rows: u64 = (21..=26u64).map(|l| 300 - l + 1).sum();
        // One margin and one TLB observation per advanced row.
        assert_eq!(snap.histogram("core.lb.margin").unwrap().count, rows);
        assert_eq!(snap.histogram("core.lb.tlb").unwrap().count, rows);
        assert_eq!(
            snap.counter("core.lb.valid_rows").unwrap()
                + snap.counter("core.lb.nonvalid_rows").unwrap(),
            rows
        );
        assert_eq!(snap.histogram("core.submp.advance_us").unwrap().count, 6);
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
        state.partials[0] = PartialProfile::new(0, 16, sigma, 9);
        let res = compute_sub_mp(&ps, &mut state.partials, 17, policy);
        assert_eq!(res.valid_rows + res.nonvalid_rows, res.sub_mp.len());
        let oracle = stomp(&ps, 17, policy).unwrap();
        for (j, &d) in res.sub_mp.iter().enumerate() {
            if d.is_finite() {
                assert!((d - oracle.mp[j]).abs() < 1e-6, "row {j}");
            }
        }
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
