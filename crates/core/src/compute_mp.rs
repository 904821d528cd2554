//! `ComputeMatrixProfile` (paper Algorithm 3): STOMP plus lower-bound
//! harvesting.
//!
//! The harvest is fused into the diagonal-blocked kernel
//! ([`valmod_mp::diagonal::diagonal_rows`]): every visited cell `(i, j)`,
//! handed over one block row of lanes at a time, folds into both rows'
//! minima *and* both rows' [`PartialProfile`]s (`listDP` in the paper) in
//! one cache-resident pass, reusing a [`Workspace`]'s buffers and FFT
//! plans across calls. Total cost
//! `O(n² log p)` at worst; the per-row gates of [`crate::harvest`] keep
//! most cells out of the heaps. With several threads the pass splits its
//! diagonals into ranges ([`Diagonals::chunks`]), one sink per range,
//! merged afterwards. The heap's strict total order makes the retained set
//! independent of visit order and of the split, so the result matches the
//! row-streamed harvest (`harvest_row` over
//! [`valmod_mp::stomp::StompDriver`] rows) — which survives as the
//! refinement step of `ComputeSubMP` — at every thread count.

use valmod_data::error::{Result, ValmodError};
use valmod_mp::diagonal::{diagonal_rows, Diagonals};
use valmod_mp::exclusion::ExclusionPolicy;
use valmod_mp::extend::{capture_cells, stomp_with_tail_ws, TailState};
use valmod_mp::matrix_profile::MatrixProfile;
use valmod_mp::workspace::Workspace;
use valmod_mp::ProfiledSeries;
use valmod_obs::{Recorder, SharedRecorder};

use crate::harvest::{harvest_pass, take_hint, HarvestSink};
use crate::profile::PartialProfile;

/// A matrix profile together with the per-row partial distance profiles
/// harvested while computing it.
#[derive(Debug, Clone)]
pub struct MpWithProfiles {
    /// The exact matrix profile at the anchor length.
    pub profile: MatrixProfile,
    /// `listDP`: one partial profile per row, anchored at the same length.
    pub partials: Vec<PartialProfile>,
}

/// Computes the matrix profile at length `l`, harvesting `p` lower-bound
/// entries per row (paper Algorithm 3). Runs the fused diagonal harvest
/// ([`compute_matrix_profile_ws`]) with a fresh [`Workspace`]; callers
/// computing many profiles should hold a workspace to reuse FFT plans and
/// buffers.
pub fn compute_matrix_profile(
    ps: &ProfiledSeries,
    l: usize,
    p: usize,
    policy: ExclusionPolicy,
) -> Result<MpWithProfiles> {
    let mut ws = Workspace::new();
    compute_matrix_profile_ws(ps, l, p, policy, &mut ws)
}

/// [`compute_matrix_profile`] over a caller-held [`Workspace`]: one blocked
/// diagonal traversal computes the matrix profile *and* harvests both ends
/// of every visited pair — `(i, j)` is touched once and offered to
/// `partials[i]` and `partials[j]` through their gates (see
/// [`crate::harvest`]). The retained sets equal the row-streamed harvest's:
/// the heap order is total, so offer order cannot change which entries
/// survive.
///
/// When the workspace holds a [`HarvestHint`](valmod_mp::HarvestHint) for
/// this `l`, `p` and row count (left by a `ComputeSubMP` that could not
/// certify `l`), the pass takes it and seeds its gates from it; any
/// pending hint is consumed either way. The result does not depend on the
/// hint.
pub fn compute_matrix_profile_ws(
    ps: &ProfiledSeries,
    l: usize,
    p: usize,
    policy: ExclusionPolicy,
    ws: &mut Workspace,
) -> Result<MpWithProfiles> {
    compute_matrix_profile_with_ws(ps, l, p, policy, 1, &SharedRecorder::noop(), ws)
}

/// One range of a plain pass: every cell into the sink.
fn plain_walk(diags: &Diagonals<'_>, range: (usize, usize), sink: &mut HarvestSink) {
    diagonal_rows(diags, range, |i, j0, qt, dist| sink.visit_row(i, j0, qt, dist));
}

/// One range of a capturing pass: every cell into the sink, plus the
/// range's chain heads.
fn capture_walk(diags: &Diagonals<'_>, range: (usize, usize), sink: &mut HarvestSink) -> Vec<f64> {
    capture_cells(diags, range, |i, j0, qt, dist| sink.visit_row(i, j0, qt, dist))
}

/// The one fused pass behind every entry point: takes the workspace's hint,
/// prepares the seeds once, runs `walk` over the `threads`-way diagonal
/// split ([`harvest_pass`]) and records the pass. Returns the result and
/// each range's side output in range order.
#[allow(clippy::too_many_arguments)] // the entry points' knobs plus the walk
fn fused_harvest<T: Send>(
    ps: &ProfiledSeries,
    l: usize,
    p: usize,
    policy: ExclusionPolicy,
    threads: usize,
    recorder: &SharedRecorder,
    ws: &mut Workspace,
    walk: impl Fn(&Diagonals<'_>, (usize, usize), &mut HarvestSink) -> T + Sync,
) -> Result<(MpWithProfiles, Vec<T>)> {
    let _span = valmod_obs::span!(recorder, "core.mp.full_profile_us");
    let baseline = PassBaseline::take(ws);
    let ndp = ps.require_pairs(l)?;
    if u32::try_from(ndp).is_err() {
        return Err(ValmodError::InvalidParameter(format!(
            "harvest: {ndp} rows exceed the u32 neighbour range of listDP"
        )));
    }
    let hint = take_hint(ws, l, p, ndp);
    let diags = Diagonals::prepare(ps, l, &policy, ws)?;
    let (harvest, outs) =
        harvest_pass(ps, l, p, ndp, hint, &diags.chunks(threads), |range, sink| {
            walk(&diags, range, sink)
        });
    baseline.record(recorder, ndp, l, policy, ws);
    harvest.stats.record(recorder);
    let profile =
        MatrixProfile { l, mp: harvest.mp, ip: harvest.ip, exclusion_radius: policy.radius(l) };
    Ok((MpWithProfiles { profile, partials: harvest.partials }, outs))
}

/// Unified recorded entry point for the harvesting matrix-profile pass with
/// `threads` workers (0 = all available cores). Uses a fresh
/// [`Workspace`]; see [`compute_matrix_profile_with_ws`] for plan/buffer
/// reuse.
pub fn compute_matrix_profile_with(
    ps: &ProfiledSeries,
    l: usize,
    p: usize,
    policy: ExclusionPolicy,
    threads: usize,
    recorder: &SharedRecorder,
) -> Result<MpWithProfiles> {
    let mut ws = Workspace::new();
    compute_matrix_profile_with_ws(ps, l, p, policy, threads, recorder, &mut ws)
}

/// [`compute_matrix_profile_ws`] with `threads` workers, over a caller-held
/// [`Workspace`]. The diagonals split into `threads` cell-balanced ranges
/// ([`Diagonals::chunks`]); the result — `mp`, `ip` and every row's
/// harvested entries — is bit-identical at every thread count, and one
/// thread runs a single range on the calling thread with no spawn and no
/// merge. Each extra worker holds its own `ndp × p` heaps during the pass.
///
/// With an enabled recorder the pass is timed into
/// `core.mp.full_profile_us` and accounted under `core.mp.full_profiles`,
/// `mp.mass.calls` (one seed row per pass), `mp.stomp.rows`,
/// `mp.diag.blocks`, `mp.workspace.reuses` and the FFT plan-cache traffic
/// (`fft.plan_cache.hits`/`misses`), plus the harvest counters
/// `core.harvest.offers`, `.accepted`, `.seeded_rows` and `.seed_reruns`
/// (see [`crate::harvest`]; with several ranges, `accepted` counts entries
/// that entered a range's heap). A pass rerun unseeded counts once in
/// `core.mp.full_profiles`, `mp.stomp.rows` and `mp.diag.blocks`; its
/// harvest offers cover both traversals.
#[allow(clippy::too_many_arguments)] // recorder + workspace ride along with the knobs
pub fn compute_matrix_profile_with_ws(
    ps: &ProfiledSeries,
    l: usize,
    p: usize,
    policy: ExclusionPolicy,
    threads: usize,
    recorder: &SharedRecorder,
    ws: &mut Workspace,
) -> Result<MpWithProfiles> {
    let (out, _) = fused_harvest(ps, l, p, policy, threads, recorder, ws, plain_walk)?;
    Ok(out)
}

/// [`compute_matrix_profile_with_ws`] plus a captured [`TailState`]: the
/// same fused diagonal harvest, additionally recording the distance
/// matrix's last-column QT values (each range its own) so the whole result
/// — profile *and* partial profiles — can later be extended under appends
/// (`SegmentState` in [`crate::valmod`]) instead of recomputed. Results and
/// accounting equal [`compute_matrix_profile_with_ws`]'s at every thread
/// count; the capture only reads QT values the traversal produces anyway.
pub fn compute_matrix_profile_capture_with_ws(
    ps: &ProfiledSeries,
    l: usize,
    p: usize,
    policy: ExclusionPolicy,
    threads: usize,
    recorder: &SharedRecorder,
    ws: &mut Workspace,
) -> Result<(MpWithProfiles, TailState)> {
    let (out, heads) = fused_harvest(ps, l, p, policy, threads, recorder, ws, capture_walk)?;
    Ok((out, TailState::from_heads(ps, l, policy, heads)))
}

/// The matrix profile at `l` and its [`TailState`], without a harvest: what
/// a segment that never advances past its anchor keeps. `mp` and `ip` are
/// bit-identical to [`compute_matrix_profile_capture_with_ws`]'s at every
/// `p` and thread count, and the pass is accounted like it, minus the
/// harvest counters.
pub(crate) fn capture_profile_with_ws(
    ps: &ProfiledSeries,
    l: usize,
    policy: ExclusionPolicy,
    threads: usize,
    recorder: &SharedRecorder,
    ws: &mut Workspace,
) -> Result<(MatrixProfile, TailState)> {
    let _span = valmod_obs::span!(recorder, "core.mp.full_profile_us");
    let baseline = PassBaseline::take(ws);
    let (profile, tail) = stomp_with_tail_ws(ps, l, policy, threads, ws)?;
    baseline.record(recorder, profile.len(), l, policy, ws);
    Ok((profile, tail))
}

/// Pre-pass workspace snapshot, turned into the per-pass accounting.
struct PassBaseline {
    hits0: u64,
    misses0: u64,
    reused: bool,
}

impl PassBaseline {
    fn take(ws: &Workspace) -> Self {
        PassBaseline {
            hits0: ws.plan_cache().hits(),
            misses0: ws.plan_cache().misses(),
            reused: ws.uses() > 0,
        }
    }

    fn record(
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
        recorder.add("core.mp.full_profiles", 1);
        recorder.add("mp.mass.calls", 1);
        recorder.add("mp.stomp.rows", ndp as u64);
        recorder.add(
            "mp.diag.blocks",
            valmod_mp::diagonal::block_count(ndp, policy.radius(l), ws.block()),
        );
        if self.reused {
            recorder.add("mp.workspace.reuses", 1);
        }
        recorder.add("fft.plan_cache.hits", ws.plan_cache().hits() - self.hits0);
        recorder.add("fft.plan_cache.misses", ws.plan_cache().misses() - self.misses0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harvest::harvest_row;
    use valmod_data::generators::random_walk;
    use valmod_mp::distance_profile::profile_min;
    use valmod_mp::stomp::stomp;

    #[test]
    fn parallel_harvest_matches_sequential() {
        let ps = ProfiledSeries::from_values(&random_walk(320, 37)).unwrap();
        let (l, p) = (20, 4);
        let seq = compute_matrix_profile(&ps, l, p, ExclusionPolicy::HALF).unwrap();
        let noop = SharedRecorder::noop();
        for threads in [1usize, 2, 3, 7, 16, 0] {
            let par = compute_matrix_profile_with(&ps, l, p, ExclusionPolicy::HALF, threads, &noop)
                .unwrap();
            assert_harvests_bit_identical(&par, &seq, &format!("threads={threads}"));
        }
    }

    /// The pre-fusion implementation, kept verbatim as the reference: stream
    /// rows with the [`valmod_mp::stomp::StompDriver`] and harvest each with
    /// [`harvest_row`].
    fn row_streamed_reference(
        ps: &ProfiledSeries,
        l: usize,
        p: usize,
        policy: ExclusionPolicy,
    ) -> MpWithProfiles {
        let mut driver = valmod_mp::stomp::StompDriver::new(ps, l, policy).unwrap();
        let ndp = driver.ndp();
        let mut mp = vec![f64::INFINITY; ndp];
        let mut ip = vec![usize::MAX; ndp];
        let mut partials: Vec<PartialProfile> =
            (0..ndp).map(|j| PartialProfile::new(j, l, ps.std(j, l), p, ndp)).collect();
        let mut dp = Vec::with_capacity(ndp);
        while let Some(row) = driver.next_row(&mut dp) {
            if let Some((arg, d)) = profile_min(&dp) {
                mp[row] = d;
                ip[row] = arg;
            }
            harvest_row(ps, &mut partials[row], &dp, driver.qt(), row, l);
        }
        MpWithProfiles {
            profile: MatrixProfile { l, mp, ip, exclusion_radius: policy.radius(l) },
            partials,
        }
    }

    fn assert_harvests_bit_identical(a: &MpWithProfiles, b: &MpWithProfiles, what: &str) {
        assert_eq!(a.profile.len(), b.profile.len(), "{what}: length");
        for i in 0..a.profile.len() {
            assert_eq!(a.profile.mp[i].to_bits(), b.profile.mp[i].to_bits(), "{what}: mp[{i}]");
            assert_eq!(a.profile.ip[i], b.profile.ip[i], "{what}: ip[{i}]");
        }
        for (pa, pb) in a.partials.iter().zip(&b.partials) {
            assert_eq!(pa.owner, pb.owner);
            let norm = |p: &PartialProfile| {
                let mut v: Vec<(usize, u64, u64)> = p
                    .entries()
                    .iter()
                    .map(|e| (e.neighbor(), e.qt().to_bits(), e.lb_key().to_bits()))
                    .collect();
                v.sort_unstable();
                v
            };
            assert_eq!(norm(pa), norm(pb), "{what}: partials of owner {}", pa.owner);
        }
    }

    #[test]
    fn fused_diagonal_harvest_matches_row_harvest_bit_for_bit() {
        let ps = ProfiledSeries::from_values(&random_walk(320, 61)).unwrap();
        for (l, p) in [(16usize, 4usize), (24, 1), (50, 8)] {
            let reference = row_streamed_reference(&ps, l, p, ExclusionPolicy::HALF);
            let fused = compute_matrix_profile(&ps, l, p, ExclusionPolicy::HALF).unwrap();
            assert_harvests_bit_identical(&fused, &reference, &format!("l={l} p={p}"));
        }
    }

    #[test]
    fn fused_harvest_handles_tied_distances_from_flat_stretches() {
        // A long constant stretch yields many exactly-equal distances (0 and
        // √ℓ); the total heap order must retain the same set either way.
        let mut series = random_walk(260, 67);
        for v in &mut series[80..140] {
            *v = 1.0;
        }
        let ps = ProfiledSeries::from_values(&series).unwrap();
        let reference = row_streamed_reference(&ps, 16, 3, ExclusionPolicy::HALF);
        // Narrow blocks offer a flat row its far neighbours first, so a gate
        // that turned away ties at the root key would keep the wrong ones.
        // Widths 7, 8 and 9 sit at the edges of an 8-lane gate chunk.
        for block in [1usize, 4, 7, 8, 9, 256] {
            let mut ws = Workspace::with_block(block);
            let fused =
                compute_matrix_profile_ws(&ps, 16, 3, ExclusionPolicy::HALF, &mut ws).unwrap();
            assert_harvests_bit_identical(
                &fused,
                &reference,
                &format!("flat stretch, block {block}"),
            );
        }
    }

    #[test]
    fn workspace_reuse_does_not_change_the_harvest() {
        let ps = ProfiledSeries::from_values(&random_walk(300, 71)).unwrap();
        let mut ws = Workspace::new();
        for l in [40usize, 41, 64, 40] {
            let reused =
                compute_matrix_profile_ws(&ps, l, 4, ExclusionPolicy::HALF, &mut ws).unwrap();
            let fresh = compute_matrix_profile(&ps, l, 4, ExclusionPolicy::HALF).unwrap();
            assert_harvests_bit_identical(&reused, &fresh, &format!("l={l}"));
        }
        // Since the direct-seeding rewrite the fused diagonal harvest does no
        // FFT work at all — its seeds must stay prefix-stable under appends.
        assert_eq!(
            ws.plan_cache().hits() + ws.plan_cache().misses(),
            0,
            "diagonal harvest must not touch the FFT plan cache"
        );
    }

    #[test]
    fn capturing_variant_is_bit_identical_and_extension_ready() {
        let series = random_walk(360, 73);
        let base = ProfiledSeries::from_values(&series[..300]).unwrap();
        let grown = ProfiledSeries::with_offset(&series, base.offset()).unwrap();
        let plain = compute_matrix_profile(&base, 18, 4, ExclusionPolicy::HALF).unwrap();
        let cold = stomp(&grown, 18, ExclusionPolicy::HALF).unwrap();
        let noop = SharedRecorder::noop();
        // Each diagonal range captures its own chain heads.
        for threads in [1usize, 2, 3, 7, 0] {
            let what = format!("threads={threads}");
            let (captured, mut tail) = compute_matrix_profile_capture_with_ws(
                &base,
                18,
                4,
                ExclusionPolicy::HALF,
                threads,
                &noop,
                &mut Workspace::new(),
            )
            .unwrap();
            assert_harvests_bit_identical(&captured, &plain, &what);
            // The captured tail really is the extension entry point: growing
            // the series through it reproduces a cold profile bit for bit.
            let mut profile = captured.profile.clone();
            valmod_mp::extend::extend_profile(&mut profile, &mut tail, &grown).unwrap();
            for i in 0..cold.len() {
                assert_eq!(profile.mp[i].to_bits(), cold.mp[i].to_bits(), "{what}: mp[{i}]");
                assert_eq!(profile.ip[i], cold.ip[i], "{what}: ip[{i}]");
            }
        }
    }

    #[test]
    fn profile_part_matches_plain_stomp() {
        let ps = ProfiledSeries::from_values(&random_walk(400, 19)).unwrap();
        let with = compute_matrix_profile(&ps, 24, 5, ExclusionPolicy::HALF).unwrap();
        let plain = stomp(&ps, 24, ExclusionPolicy::HALF).unwrap();
        for i in 0..plain.len() {
            assert!((with.profile.mp[i] - plain.mp[i]).abs() < 1e-9, "row {i}");
        }
    }

    #[test]
    fn partials_hold_p_smallest_lb_entries() {
        let ps = ProfiledSeries::from_values(&random_walk(300, 23)).unwrap();
        let p = 4;
        let l = 16;
        let policy = ExclusionPolicy::HALF;
        let with = compute_matrix_profile(&ps, l, p, policy).unwrap();
        // Recompute row 10's keys exhaustively and compare to the heap.
        let row = 10usize;
        let dp = valmod_mp::distance_profile::self_distance_profile(&ps, row, l, &policy);
        let mut keys: Vec<f64> = dp
            .iter()
            .filter(|d| d.is_finite())
            .map(|&d| {
                let q = (1.0 - d * d / (2.0 * l as f64)).clamp(-1.0, 1.0);
                crate::lb::lb_key(q, l)
            })
            .collect();
        keys.sort_by(f64::total_cmp);
        let mut got: Vec<f64> = with.partials[row].entries().iter().map(|e| e.lb_key()).collect();
        got.sort_by(f64::total_cmp);
        assert_eq!(got.len(), p);
        for (a, b) in got.iter().zip(&keys[..p]) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn partial_entries_store_dot_products_of_true_distances() {
        let ps = ProfiledSeries::from_values(&random_walk(250, 29)).unwrap();
        let l = 20;
        let with = compute_matrix_profile(&ps, l, 6, ExclusionPolicy::HALF).unwrap();
        let t = ps.centered();
        for prof in with.partials.iter().step_by(31) {
            let j = prof.owner;
            for e in prof.entries() {
                let i = e.neighbor();
                let qt: f64 = t[j..j + l].iter().zip(&t[i..i + l]).map(|(a, b)| a * b).sum();
                assert!((e.qt() - qt).abs() < 1e-6, "qt mismatch for ({j},{i})");
                let d = valmod_mp::distance::zdist_naive(&t[j..j + l], &t[i..i + l]);
                let dist = prof.entry_dist(&ps, e);
                assert!((dist - d).abs() < 1e-6, "dist mismatch for ({j},{i})");
            }
        }
    }

    #[test]
    fn flat_owner_rows_get_zero_keys() {
        // A series with a long constant stretch: rows inside it are flat.
        let mut series = random_walk(200, 3);
        for v in &mut series[50..90] {
            *v = 1.0;
        }
        let ps = ProfiledSeries::from_values(&series).unwrap();
        let with = compute_matrix_profile(&ps, 16, 3, ExclusionPolicy::HALF).unwrap();
        // Row 60 (fully inside the flat stretch) should have key-0 entries.
        for e in with.partials[60].entries() {
            assert_eq!(e.lb_key(), 0.0);
        }
    }
}
