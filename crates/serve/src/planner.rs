//! The variable-length query planner: decomposes a `[ℓ_min, ℓ_max]`
//! request into per-length fragment fetches plus residual segments, and
//! recomposes the final [`ValmodOutput`] from the fragments.
//!
//! ## Segment grid
//!
//! Fragments are shareable across queries only when different queries
//! produce *the same* fragment, and a fragment depends on the anchor
//! length its segment computed the full profile at. The planner therefore
//! aligns every segment after the first to a **canonical block grid**,
//! fixed once for all queries: blocks start at ℓ = 1 and each block's
//! width is `max(4, lo/2)` — `[1,4] [5,8] [9,12] [13,18] [19,27] [28,41]
//! [42,62] …`, widths growing geometrically (ratio → 1.5) so the
//! sub-MP advance chains stay short relative to their anchor and the
//! paper's lower-bound certification keeps working well.
//!
//! The **first** segment is the exception: it anchors at the query's own
//! ℓ_min (covering up to the end of ℓ_min's block), so the composed
//! VALMP's ℓ_min layer is a *complete* full profile — exactly what
//! Algorithm 1 guarantees — and a single-length query degenerates to one
//! full-profile segment, identical to the unplanned path.
//!
//! ## Determinism
//!
//! The plan is a pure function of `(ℓ_min, ℓ_max)`, and each fragment is a
//! pure function of `(series, version, anchor, ℓ, p, policy)` — see
//! [`valmod_core::Valmod::run_lengths_on`]. Replaying cached fragments
//! therefore composes a byte-identical body to recomputing every segment,
//! which is what the `valmod check` planner oracle proves under mixed
//! overlapping ranges.
//!
//! A single-length segment (`hi == anchor`) is only its anchor's full
//! profile, which does not depend on `p`, so its fragment and its
//! `listDP`-free state are keyed by the policy alone; a range anchored at ℓ
//! keeps its own `p`-keyed ones and never takes that state. A hot length's
//! state is *pinned* (see [`crate::fragment`]). States are keyed by the
//! series' generation too, so nothing parked before a replace is revived
//! after it, whatever the new series' length.
//!
//! ## Lazy revalidation after APPEND
//!
//! An append bumps the series version, so every cached fragment stops
//! matching — but nothing is purged. On the next touch the planner first
//! garbage-collects the stale-watermarked fragments, then revives each
//! missed segment from its parked [`SegmentState`]: extend over the
//! appended tail (`O(k·n)`), replay, re-insert under the new version, and
//! park the state again — after the fragments, so a state never pushes
//! out its own segment (see [`crate::fragment`] for the parking tiers).
//! Extension is bit-identical to a cold recompute (the `valmod check`
//! extension oracle proves it), so revival is invisible to results —
//! only to latency. The ordering matters: staleness is judged against
//! the version captured *with* the batch view, so a concurrent append
//! can at worst leave extra stale entries for the next touch, never
//! serve them.

use std::sync::{Arc, Mutex};

use valmod_core::{compose_output, LengthProfile, SegmentState, Valmod, ValmodOutput};
use valmod_mp::ProfiledSeries;
use valmod_obs::{Recorder, SharedRecorder};

use crate::error::ServeResult;
use crate::fragment::{FragmentCache, FragmentKey};

/// One planned segment: a full profile at `anchor` advanced to `hi`
/// (inclusive). The first segment of a plan anchors at the query's ℓ_min;
/// every later segment anchors at a canonical block start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Anchor length (full-profile computation).
    pub anchor: usize,
    /// Last length of the segment (inclusive).
    pub hi: usize,
}

/// The canonical block `[lo, hi]` containing length `l` (`l ≥ 1`).
pub fn block_of(l: usize) -> (usize, usize) {
    let mut lo = 1usize;
    loop {
        let width = (lo / 2).max(4);
        let hi = lo + width - 1;
        if l <= hi {
            return (lo, hi);
        }
        lo = hi + 1;
    }
}

/// Decomposes `[l_min, l_max]` (inclusive, `l_min ≤ l_max`) into segments:
/// the first anchored at `l_min` to the end of its block, the rest aligned
/// to the canonical grid, all clipped to `l_max`.
pub fn plan_segments(l_min: usize, l_max: usize) -> Vec<Segment> {
    let (_, first_hi) = block_of(l_min);
    let mut segments = vec![Segment { anchor: l_min, hi: first_hi.min(l_max) }];
    let mut lo = first_hi + 1;
    while lo <= l_max {
        let (block_lo, block_hi) = block_of(lo);
        debug_assert_eq!(block_lo, lo, "grid walk must land on block starts");
        segments.push(Segment { anchor: lo, hi: block_hi.min(l_max) });
        lo = block_hi + 1;
    }
    segments
}

/// What one planned execution did (folded into `STATS` and obs counters).
#[derive(Debug, Default, Clone, Copy)]
pub struct PlanStats {
    /// Segments in the plan.
    pub segments: usize,
    /// Segments served whole from the fragment cache.
    pub segments_reused: usize,
    /// Segments computed by reviving a parked state instead of a cold run
    /// (a subset of the segments not reused).
    pub segments_revived: usize,
    /// Per-length fragments served from the cache.
    pub fragments_cached: usize,
    /// Per-length fragments computed by this execution.
    pub fragments_computed: usize,
}

/// Executes a plan for the inclusive `lengths = (l_min, l_max)` range:
/// fetches each segment from the fragment cache or computes it via `runner`
/// (caching the result), then composes the fragments into a
/// [`ValmodOutput`]. `runner` supplies the per-length knobs (`p`, policy,
/// threads) and the recorder. Parked states are keyed by `generation`, the
/// version the series was loaded at, so a replace never revives an older
/// state. Single-length states of `pinned` lengths park pinned: pass the
/// hot lengths when `runner`'s policy is the series' own.
#[allow(clippy::too_many_arguments)] // the series identity, its pins and the query
pub fn execute_plan(
    ps: &ProfiledSeries,
    series: &str,
    generation: u64,
    version: u64,
    pinned: &[usize],
    runner: &Valmod,
    fragments: &Mutex<FragmentCache>,
    recorder: &SharedRecorder,
    lengths: (usize, usize),
) -> ServeResult<(ValmodOutput, PlanStats)> {
    let (l_min, l_max) = lengths;
    // Validate up front, exactly as the unplanned path does, so degenerate
    // ranges never reach the cache or the grid walk.
    let mut cfg = runner.config().clone();
    cfg.l_min = l_min;
    cfg.l_max = l_max;
    cfg.validate_for(ps.len())?;
    let _span = valmod_obs::span!(recorder, "serve.planner.plan_us");

    let policy = cfg.policy.reduced();
    let anchor_knobs = format!("excl={}/{}", policy.num(), policy.den());
    let advance_knobs = format!("p={};{anchor_knobs}", cfg.p);
    let segments = plan_segments(l_min, l_max);
    let mut stats = PlanStats { segments: segments.len(), ..PlanStats::default() };
    let mut plan_fragments = Vec::with_capacity(l_max - l_min + 1);

    // Lazy GC: fragments watermarked with an older version are dead (their
    // version can never be queried again) but were deliberately not purged
    // at append time — collect them now, on the query path that owns the
    // cache lock anyway. States of an older generation go too.
    fragments.lock().expect("fragment cache lock").invalidate_stale(series, generation, version);

    for seg in &segments {
        let knobs = if seg.hi == seg.anchor { &anchor_knobs } else { &advance_knobs };
        let cached = fragments
            .lock()
            .expect("fragment cache lock")
            .get_segment(series, version, seg.anchor, seg.hi, knobs);
        match cached {
            Some(frags) => {
                stats.segments_reused += 1;
                stats.fragments_cached += frags.len();
                recorder.add("serve.fragment.hit", frags.len() as u64);
                plan_fragments.extend(frags);
            }
            None => {
                let parked = fragments
                    .lock()
                    .expect("fragment cache lock")
                    .take_state(series, generation, seg.anchor, knobs);
                let (computed, state, revived) =
                    revive_or_compute(ps, seg, parked, runner, fragments, recorder)?;
                stats.segments_revived += usize::from(revived);
                stats.fragments_computed += computed.len();
                recorder.add("serve.fragment.miss", computed.len() as u64);
                let mut cache = fragments.lock().expect("fragment cache lock");
                for lp in computed {
                    let key = FragmentKey {
                        series: series.into(),
                        version,
                        anchor: seg.anchor,
                        l: lp.l,
                        knobs: knobs.clone(),
                    };
                    let lp = Arc::new(lp);
                    cache.insert(key, Arc::clone(&lp));
                    plan_fragments.push(lp);
                }
                // Park after the segment's own fragments are in: a
                // speculative state then only gets what they left free,
                // and a proven one is the newest entry on the clock.
                if let Some(state) = state {
                    let pin = seg.hi == seg.anchor && pinned.contains(&seg.anchor);
                    if !cache.put_state(series, generation, seg.anchor, knobs, state, pin) {
                        recorder.add("serve.fragment.state_refused", 1);
                    }
                }
            }
        }
    }
    recorder.add("serve.planner.segments_reused", stats.segments_reused as u64);
    recorder
        .add("serve.planner.segments_computed", (stats.segments - stats.segments_reused) as u64);
    recorder.add("serve.planner.segments_revived", stats.segments_revived as u64);

    let output = compose_output(plan_fragments.iter().map(|a| a.as_ref()))?;
    Ok((output, stats))
}

/// Produces one segment's fragments on a cache miss: revive the `parked`
/// [`SegmentState`] if there is one — extending it over any appended tail
/// first — and only fall back to a cold `O(n²)` segment run when there is
/// no state (or it cannot serve this series' current shape). Cold runs
/// capture a fresh state so the *next* append finds something to extend.
/// The state, revived (flagged `true`) or fresh, goes back to the caller.
fn revive_or_compute(
    ps: &ProfiledSeries,
    seg: &Segment,
    parked: Option<SegmentState>,
    runner: &Valmod,
    fragments: &Mutex<FragmentCache>,
    recorder: &SharedRecorder,
) -> ServeResult<(Vec<LengthProfile>, Option<SegmentState>, bool)> {
    if let Some(mut state) = parked {
        let current = if state.n() < ps.len() {
            let _span = valmod_obs::span!(recorder, "serve.fragment.revalidate_us");
            match state.extend(ps, recorder) {
                Ok(()) => {
                    recorder.add("serve.fragment.extended", 1);
                    fragments.lock().expect("fragment cache lock").note_extended();
                    true
                }
                // A frame mismatch can only mean the state predates a
                // replace that somehow escaped the purge; recompute.
                Err(_) => false,
            }
        } else {
            // With nothing appended, `extend` only checks the state's frame.
            state.n() == ps.len() && state.extend(ps, recorder).is_ok()
        };
        if current {
            if let Ok(out) = state.replay(ps, seg.hi, recorder) {
                return Ok((out, Some(state), true));
            }
        }
    }
    let (out, state) = runner.run_lengths_capturing(ps, seg.anchor, seg.hi)?;
    Ok((out, state, false))
}

#[cfg(test)]
mod tests {
    use super::*;
    use valmod_data::generators::random_walk;
    use valmod_data::series::Series;

    #[test]
    fn the_grid_tiles_the_lengths_without_gaps() {
        let mut expected_lo = 1usize;
        for _ in 0..40 {
            let (lo, hi) = block_of(expected_lo);
            assert_eq!(lo, expected_lo);
            assert!(hi >= lo);
            // Widths grow, but never faster than +50% of the block start.
            assert_eq!(hi - lo + 1, (lo / 2).max(4));
            expected_lo = hi + 1;
        }
        // Every length maps into exactly the block that contains it.
        for l in 1..2000 {
            let (lo, hi) = block_of(l);
            assert!(lo <= l && l <= hi, "l={l} outside its block [{lo}, {hi}]");
        }
    }

    #[test]
    fn plans_cover_the_range_contiguously() {
        for (l_min, l_max) in [(1, 1), (16, 16), (16, 48), (100, 400), (7, 300), (41, 42)] {
            let segments = plan_segments(l_min, l_max);
            assert_eq!(segments[0].anchor, l_min, "first segment anchors at the query's ℓ_min");
            let mut next = l_min;
            for seg in &segments {
                assert_eq!(seg.anchor, next, "[{l_min},{l_max}]: gap before {seg:?}");
                assert!(seg.hi >= seg.anchor);
                next = seg.hi + 1;
            }
            assert_eq!(next, l_max + 1, "[{l_min},{l_max}] not fully covered");
            // Every non-first segment is grid-aligned (shareable).
            for seg in &segments[1..] {
                assert_eq!(block_of(seg.anchor).0, seg.anchor);
            }
        }
    }

    #[test]
    fn single_length_queries_are_one_full_profile_segment() {
        for l in [1, 16, 32, 100, 473] {
            assert_eq!(plan_segments(l, l), vec![Segment { anchor: l, hi: l }]);
        }
    }

    #[test]
    fn warm_plans_replay_bit_identically_and_hit_the_cache() {
        let series = Series::new(random_walk(400, 77)).unwrap();
        let ps = ProfiledSeries::new(&series);
        let runner = Valmod::new(1, 1).p(4);
        let fragments = Mutex::new(FragmentCache::new(1 << 20));
        let recorder = SharedRecorder::noop();
        let (cold, s1) =
            execute_plan(&ps, "s", 1, 1, &[], &runner, &fragments, &recorder, (16, 40)).unwrap();
        assert_eq!(s1.segments_reused, 0);
        assert!(s1.fragments_computed > 0);
        let (warm, s2) =
            execute_plan(&ps, "s", 1, 1, &[], &runner, &fragments, &recorder, (16, 40)).unwrap();
        assert_eq!(s2.segments_reused, s2.segments, "identical query reuses every segment");
        assert_eq!(s2.fragments_computed, 0);
        for (a, b) in cold.valmp.norm_distances.iter().zip(&warm.valmp.norm_distances) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(cold.valmp.indices, warm.valmp.indices);
        // An overlapping wider range reuses the grid-aligned interior but
        // recomputes its own ℓ_min-anchored head segment.
        let (_, s3) =
            execute_plan(&ps, "s", 1, 1, &[], &runner, &fragments, &recorder, (20, 40)).unwrap();
        assert!(s3.segments_reused > 0, "grid segments must be shared across queries");
        assert!(s3.fragments_computed > 0, "the head segment anchors at the new ℓ_min");
    }

    #[test]
    fn appended_series_extends_parked_states_instead_of_recomputing() {
        let series = random_walk(460, 77);
        let base = ProfiledSeries::from_values(&series[..400]).unwrap();
        let runner = Valmod::new(1, 1).p(4);
        let fragments = Mutex::new(FragmentCache::new(1 << 22));
        let recorder = SharedRecorder::noop();
        let (_, s1) =
            execute_plan(&base, "s", 1, 1, &[], &runner, &fragments, &recorder, (16, 40)).unwrap();
        assert!(s1.fragments_computed > 0);
        let parked = fragments.lock().unwrap().state_count();
        assert_eq!(parked, s1.segments, "every cold segment parks its state");

        // "Append": the same series grown by 60 samples in the pinned
        // frame, at the bumped version. Fragments all miss (old
        // watermark), but every segment revives from its parked state.
        let grown = ProfiledSeries::with_offset(&series, base.offset()).unwrap();
        let (warm, s2) =
            execute_plan(&grown, "s", 1, 2, &[], &runner, &fragments, &recorder, (16, 40)).unwrap();
        assert_eq!(s2.segments_reused, 0, "version bump misses every fragment");
        let cache = fragments.lock().unwrap();
        assert_eq!(cache.stats().extended, s2.segments as u64, "each segment extended in place");
        assert!(cache.stats().invalidated > 0, "stale fragments were lazily collected");
        drop(cache);

        // Revival must be invisible in the body: bit-identical to cold
        // segment runs over the same grown series.
        let mut cold_frags = Vec::new();
        for seg in plan_segments(16, 40) {
            cold_frags.extend(runner.run_lengths_on(&grown, seg.anchor, seg.hi).unwrap());
        }
        let cold = compose_output(cold_frags.iter()).unwrap();
        assert_eq!(warm.valmp.indices, cold.valmp.indices);
        assert_eq!(warm.valmp.lengths, cold.valmp.lengths);
        for (a, b) in warm.valmp.norm_distances.iter().zip(&cold.valmp.norm_distances) {
            assert_eq!(a.to_bits(), b.to_bits());
        }

        // And the revived fragments are cached: the same query is now warm.
        let (_, s3) =
            execute_plan(&grown, "s", 1, 2, &[], &runner, &fragments, &recorder, (16, 40)).unwrap();
        assert_eq!(s3.segments_reused, s3.segments);
    }

    #[test]
    fn single_length_segments_ignore_p_and_pin_hot_lengths() {
        let series = random_walk(460, 91);
        let base = ProfiledSeries::from_values(&series[..400]).unwrap();
        let grown = ProfiledSeries::with_offset(&series, base.offset()).unwrap();
        let fragments = Mutex::new(FragmentCache::new(1 << 22));
        let recorder = SharedRecorder::noop();
        let plan = |ps: &ProfiledSeries, version: u64, p: usize, lengths: (usize, usize)| {
            let runner = Valmod::new(1, 1).p(p);
            execute_plan(ps, "s", 1, version, &[24], &runner, &fragments, &recorder, lengths)
                .unwrap()
        };
        let assert_cold = |out: &ValmodOutput, ps: &ProfiledSeries, what: &str| {
            let frags = Valmod::new(1, 1).run_lengths_on(ps, 24, 24).unwrap();
            let cold = compose_output(frags.iter()).unwrap();
            assert_eq!(out.valmp.indices, cold.valmp.indices, "{what}");
            for (a, b) in out.valmp.norm_distances.iter().zip(&cold.valmp.norm_distances) {
                assert_eq!(a.to_bits(), b.to_bits(), "{what}");
            }
        };
        // p = 1 computes the segment; p = 8 and 50 reuse its fragment.
        let (out, stats) = plan(&base, 1, 1, (24, 24));
        assert_eq!(stats.segments_reused, 0);
        assert_cold(&out, &base, "p=1");
        for p in [8, 50] {
            let (out, stats) = plan(&base, 1, p, (24, 24));
            assert_eq!(stats.segments_reused, 1, "p={p} must hit the p-free key");
            assert_cold(&out, &base, &format!("p={p}"));
        }
        let counts = |f: &Mutex<FragmentCache>| {
            let cache = f.lock().unwrap();
            (cache.pinned().0, cache.state_count())
        };
        assert_eq!(counts(&fragments), (1, 0), "the hot length's state is pinned");
        // A range anchored at 24 keeps its own, p-keyed segment and state.
        let (_, stats) = plan(&base, 1, 8, (24, 26));
        assert_eq!(stats.segments_reused, 0, "a range never takes the single-length fragments");
        assert_eq!(counts(&fragments), (1, 1));
        // After an append, the fixed-length query revives the pinned state.
        let (out, stats) = plan(&grown, 2, 50, (24, 24));
        assert_eq!((stats.segments_revived, stats.segments_reused), (1, 0));
        assert_cold(&out, &grown, "revived");
        assert_eq!(fragments.lock().unwrap().stats().extended, 1);
        assert_eq!(counts(&fragments), (1, 1), "the revived state is pinned again");
    }

    #[test]
    fn degenerate_ranges_are_rejected_before_touching_the_cache() {
        let series = Series::new(random_walk(60, 3)).unwrap();
        let ps = ProfiledSeries::new(&series);
        let runner = Valmod::new(1, 1).p(4);
        let fragments = Mutex::new(FragmentCache::new(1 << 20));
        let recorder = SharedRecorder::noop();
        for (lo, hi) in [(0, 8), (20, 10), (16, 600)] {
            assert!(
                execute_plan(&ps, "s", 1, 1, &[], &runner, &fragments, &recorder, (lo, hi))
                    .is_err(),
                "[{lo},{hi}] must be rejected"
            );
        }
        assert!(fragments.lock().unwrap().is_empty());
    }
}
