//! The `listDP` harvest (paper Algorithm 3, lines 18–24): every cell
//! `(i, j)` of a full matrix-profile pass is offered to the partial profiles
//! of both rows, and each row keeps its `p` smallest Eq. 2 keys.
//!
//! One sink serves every fused pass — the anchor and fallback profiles
//! ([`crate::compute_mp`]), their capturing variant, and segment extension
//! under appends ([`crate::valmod::SegmentState::extend`]) — and
//! `harvest_row` applies the same key and offer rule to one streamed row.
//!
//! ## Gates
//!
//! Each row carries an admission gate: `+∞` until its heap is full, then the
//! heap root's key. A cell reaches a row's heap only when its key is at most
//! the gate; ties at the gate still go through
//! [`PartialProfile::offer`]'s exact `(lb_key, neighbour)` order. A rejected
//! cell is one `offer` would have rejected too, so gating never changes the
//! retained set — it replaces a pointer chase to the heap root with a load
//! from one dense array.
//!
//! ## Seeds
//!
//! A pass may start a row's gate below `+∞` ([`seed_gate`]). Seeding is a
//! pure hint. Let `K*` be the key of the row's `p`-th smallest entry under
//! the strict order. If the seed is at least `K*`, every entry of the true
//! top `p` passes it, and the pass retains exactly that set. If the seed is
//! below `K*`, fewer than `p` cells pass it, and the row ends with a heap
//! that is not full. So a pass whose seeded rows all end full is exact, and
//! any other pass is rerun unseeded.

use valmod_mp::diagonal::{fold_row, lex_update};
use valmod_mp::distance::is_flat;
use valmod_mp::parallel::map_chunks;
use valmod_mp::workspace::Workspace;
use valmod_mp::ProfiledSeries;
use valmod_obs::{Recorder, SharedRecorder};

use crate::profile::{DpEntry, PartialProfile};

/// Relative slack on a seeded gate, covering the rounding between a
/// distance advanced entry by entry and the kernel's distance of the same
/// pair.
const SEED_REL_MARGIN: f64 = 1e-9;

/// Absolute slack per unit of length on a seeded gate, for keys so small
/// that the relative slack vanishes (near-duplicate pairs).
const SEED_ABS_MARGIN: f64 = 1e-12;

/// Lanes per gate-scan chunk of [`HarvestSink::visit_row`]. Once the
/// gates tighten, most chunks have no passing lane and cost a few vector
/// compares.
const GATE_LANES: usize = 8;

/// The Eq. 2 anchor key of a pair from its distance: `q = 1 − d²/(2ℓ)`,
/// key `ℓ(1 − q²)` for `q > 0` and `ℓ` otherwise. Pairs involving a flat
/// subsequence get key 0 (LB 0, unconditionally admissible), because the
/// analytic bound's derivation assumes both σ > 0.
///
/// Branch-free: clamping `q` to `[0, 1]` folds the `q ≤ 0` case into the
/// general expression (`1 − 0² = 1`), with the same bits as
/// [`crate::lb::lb_key`] over `q` clamped to `[−1, 1]`.
#[inline(always)]
pub(crate) fn key_for_pair(dist: f64, l: usize, owner_flat: bool, neighbor_flat: bool) -> f64 {
    let lf = l as f64;
    let q = (1.0 - (dist * dist) / (2.0 * lf)).clamp(0.0, 1.0);
    let key = (lf * (1.0 - q * q)).max(0.0);
    if owner_flat | neighbor_flat {
        0.0
    } else {
        key
    }
}

/// The gate a row starts at when `p` distinct valid pairs of it are known
/// to have distances at most `max_dist`: their largest key plus a small
/// slack. The key is monotone in the distance and 0 for flat pairs, so the
/// row's `p`-th smallest key is at most this (up to rounding the slack
/// covers). A non-finite `max_dist` leaves the row unseeded (`+∞`).
pub fn seed_gate(max_dist: f64, l: usize) -> f64 {
    if !max_dist.is_finite() {
        return f64::INFINITY;
    }
    let key = key_for_pair(max_dist, l, false, false);
    key + key * SEED_REL_MARGIN + l as f64 * SEED_ABS_MARGIN
}

/// Harvest accounting, recorded as the `core.harvest.*` counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct HarvestStats {
    /// Cells offered to a row (two per finite cell of a fused pass).
    pub offers: u64,
    /// Offers that entered a heap; `accepted / offers` is the harvest's
    /// useful-work ratio.
    pub accepted: u64,
    /// Rows whose gate started at a seed.
    pub seeded_rows: u64,
    /// Passes rerun unseeded because a seeded row ended short.
    pub seed_reruns: u64,
}

impl HarvestStats {
    /// Adds another pass's accounting to this one.
    pub(crate) fn merge(&mut self, other: HarvestStats) {
        self.offers += other.offers;
        self.accepted += other.accepted;
        self.seeded_rows += other.seeded_rows;
        self.seed_reruns += other.seed_reruns;
    }

    /// Adds the counters to `recorder` (zeros included, so they show).
    pub(crate) fn record(&self, recorder: &SharedRecorder) {
        if recorder.enabled() {
            recorder.add("core.harvest.offers", self.offers);
            recorder.add("core.harvest.accepted", self.accepted);
            recorder.add("core.harvest.seeded_rows", self.seeded_rows);
            recorder.add("core.harvest.seed_reruns", self.seed_reruns);
        }
    }
}

/// The gate of a row whose heap is `prof`: its root key once full.
#[inline]
fn row_gate(prof: &PartialProfile) -> f64 {
    match prof.max_lb_key() {
        Some(key) if prof.is_full() => key,
        _ => f64::INFINITY,
    }
}

/// The offer rule every harvest shares, for a cell already inside the
/// row's gate: offer it under the strict order, and tighten the gate to the
/// heap root whenever a kept entry leaves the heap full. Returns whether
/// the entry was kept.
#[inline]
fn admit(prof: &mut PartialProfile, gate: &mut f64, entry: DpEntry) -> bool {
    let kept = prof.offer(entry);
    if kept && prof.is_full() {
        *gate = row_gate(prof);
    }
    kept
}

/// Harvests one freshly computed distance profile row into `prof` (which
/// must already be (re-)anchored at `l`), gated on the row's own heap root.
pub(crate) fn harvest_row(
    ps: &ProfiledSeries,
    prof: &mut PartialProfile,
    dp: &[f64],
    qt: &[f64],
    owner: usize,
    l: usize,
) -> HarvestStats {
    let owner_flat = is_flat(ps.std(owner, l), ps.mean_c(owner, l));
    let mut gate = row_gate(prof);
    let mut stats = HarvestStats::default();
    for (i, (&dist, &q)) in dp.iter().zip(qt).enumerate() {
        if !dist.is_finite() {
            continue; // exclusion zone
        }
        stats.offers += 1;
        let neighbor_flat = is_flat(ps.std(i, l), ps.mean_c(i, l));
        let key = key_for_pair(dist, l, owner_flat, neighbor_flat);
        if key <= gate && admit(prof, &mut gate, DpEntry::new(i, q, key)) {
            stats.accepted += 1;
        }
    }
    stats
}

/// The state of one fused pass: the matrix profile being min-folded and
/// the partial profiles being harvested, with one gate per row.
pub(crate) struct HarvestSink {
    l: usize,
    mp: Vec<f64>,
    ip: Vec<usize>,
    partials: Vec<PartialProfile>,
    flats: Vec<bool>,
    gates: Vec<f64>,
    /// The seeded starting gates, one per row (empty when unseeded).
    seeds: Vec<f64>,
    stats: HarvestStats,
    /// Lane buffer: the keys of the block row being visited.
    keys: Vec<f64>,
}

/// What a finished pass hands back.
pub(crate) struct Harvested {
    /// Matrix profile row minima.
    pub(crate) mp: Vec<f64>,
    /// Nearest-neighbour indices matching `mp`.
    pub(crate) ip: Vec<usize>,
    /// The harvested `listDP`.
    pub(crate) partials: Vec<PartialProfile>,
    /// The pass's accounting.
    pub(crate) stats: HarvestStats,
}

impl HarvestSink {
    /// A fresh pass over the `ndp` rows of length `l`, each gate starting at
    /// its seed (`seeds` is empty when unseeded, else one gate per row).
    fn new(ps: &ProfiledSeries, l: usize, p: usize, ndp: usize, seeds: &[f64]) -> Self {
        let partials = (0..ndp).map(|j| PartialProfile::new(j, l, ps.std(j, l), p)).collect();
        let mut sink =
            Self::resume(ps, l, vec![f64::INFINITY; ndp], vec![usize::MAX; ndp], partials);
        if !seeds.is_empty() {
            sink.seeds = seeds.to_vec();
            sink.gates.copy_from_slice(seeds);
            sink.stats.seeded_rows = seeds.iter().filter(|g| g.is_finite()).count() as u64;
        }
        sink
    }

    /// Continues a pass over existing anchor artifacts (one entry of `mp`,
    /// `ip` and `partials` per row), each gate at its heap's root.
    pub(crate) fn resume(
        ps: &ProfiledSeries,
        l: usize,
        mp: Vec<f64>,
        ip: Vec<usize>,
        partials: Vec<PartialProfile>,
    ) -> Self {
        debug_assert!(mp.len() == partials.len() && ip.len() == partials.len());
        let (mut means, mut stds) = (Vec::new(), Vec::new());
        ps.fill_stats(l, partials.len(), &mut means, &mut stds);
        let flats = means.iter().zip(&stds).map(|(&mean, &std)| is_flat(std, mean)).collect();
        let gates = partials.iter().map(row_gate).collect();
        HarvestSink {
            l,
            mp,
            ip,
            partials,
            flats,
            gates,
            seeds: Vec::new(),
            stats: HarvestStats::default(),
            keys: Vec::new(),
        }
    }

    /// Folds the block row `(i, j0..j0 + w)` — lane `c` holds cell
    /// `(i, j0 + c)`'s dot product `qt[c]` and distance `dist[c]` — into
    /// both ends' minima ([`fold_row`]) and offers every cell to both ends'
    /// heaps through their gates.
    ///
    /// The keys go into the sink's lane buffer in one branch-free loop (the
    /// key is symmetric in the pair's flat flags, so both ends share it),
    /// and the gates are scanned [`GATE_LANES`] lanes at a time. Only a
    /// chunk with a passing lane takes the scalar path
    /// ([`HarvestSink::offer_lanes`]), which offers its cells one by one in
    /// the order a per-cell walk would: ascending `c`, row end first. So
    /// every heap sees the same offers in the same order as it would cell
    /// by cell, and keeps the same entries in the same heap layout.
    pub(crate) fn visit_row(&mut self, i: usize, j0: usize, qt: &[f64], dist: &[f64]) {
        let w = dist.len();
        fold_row(&mut self.mp, &mut self.ip, i, j0, dist);
        let mut keys = std::mem::take(&mut self.keys);
        keys.resize(w, 0.0);
        debug_assert!(dist.iter().all(|d| d.is_finite()), "the traversal's distances are finite");
        let (l, row_flat) = (self.l, self.flats[i]);
        for ((key, &d), &col_flat) in keys.iter_mut().zip(dist).zip(&self.flats[j0..j0 + w]) {
            *key = key_for_pair(d, l, row_flat, col_flat);
        }
        self.stats.offers += 2 * w as u64;
        for c0 in (0..w).step_by(GATE_LANES) {
            let c1 = (c0 + GATE_LANES).min(w);
            let gate_i = self.gates[i];
            let pass = keys[c0..c1]
                .iter()
                .zip(&self.gates[j0 + c0..j0 + c1])
                .fold(false, |any, (&k, &gate_j)| any | (k <= gate_i) | (k <= gate_j));
            if pass {
                self.offer_lanes(i, j0, c0..c1, (qt, &keys));
            }
        }
        self.keys = keys;
    }

    /// The scalar path of [`HarvestSink::visit_row`] for the lanes `cs` of
    /// one gate chunk: each lane re-checked against the live gates, and
    /// offered to row `i` first, then to its column. Kept out of line so
    /// the lane loops stay small.
    #[inline(never)]
    fn offer_lanes(
        &mut self,
        i: usize,
        j0: usize,
        cs: std::ops::Range<usize>,
        (qt, keys): (&[f64], &[f64]),
    ) {
        for c in cs {
            let (j, lb_key) = (j0 + c, keys[c]);
            if lb_key <= self.gates[i] {
                self.offer(i, DpEntry::new(j, qt[c], lb_key));
            }
            if lb_key <= self.gates[j] {
                self.offer(j, DpEntry::new(i, qt[c], lb_key));
            }
        }
    }

    /// Offers `entry` to `row`'s heap and counts it when kept.
    #[inline(never)]
    fn offer(&mut self, row: usize, entry: DpEntry) {
        if admit(&mut self.partials[row], &mut self.gates[row], entry) {
            self.stats.accepted += 1;
        }
    }

    /// Folds a sink that walked another diagonal range of the same pass into
    /// this one: row minima by [`lex_update`], heap entries through this
    /// sink's gates. Both folds are order-independent under the strict
    /// orders, so the result is the sink that walked both ranges.
    fn absorb(&mut self, other: HarvestSink) {
        for (i, (&d, &j)) in other.mp.iter().zip(&other.ip).enumerate() {
            lex_update(&mut self.mp[i], &mut self.ip[i], d, j);
        }
        for (row, prof) in other.partials.iter().enumerate() {
            for &entry in prof.entries() {
                if entry.lb_key() <= self.gates[row] {
                    admit(&mut self.partials[row], &mut self.gates[row], entry);
                }
            }
        }
        self.stats.offers += other.stats.offers;
        self.stats.accepted += other.stats.accepted;
    }

    /// Whether every seeded row ended with a full heap — the condition under
    /// which the pass retained exactly the unseeded top `p` of every row.
    fn seeds_held(&self) -> bool {
        self.seeds.iter().zip(&self.partials).all(|(s, prof)| s.is_infinite() || prof.is_full())
    }

    /// Hands back the pass's results.
    pub(crate) fn finish(self) -> Harvested {
        Harvested { mp: self.mp, ip: self.ip, partials: self.partials, stats: self.stats }
    }
}

/// Takes the per-row distance bounds of the workspace's
/// [`HarvestHint`](valmod_mp::workspace::HarvestHint) when it was left for
/// this length, `p` and row count. Any other pending hint is dropped, so a
/// hint never outlives the pass after it.
pub(crate) fn take_hint(ws: &mut Workspace, l: usize, p: usize, ndp: usize) -> Option<Vec<f64>> {
    ws.take_harvest_hint()
        .filter(|h| h.l == l && h.p == p && h.max_dist.len() == ndp)
        .map(|h| h.max_dist)
}

/// Runs one fresh fused pass over the `ndp` rows of length `l`, split into
/// the diagonal ranges `chunks`: `walk(range, sink)` streams every block
/// row of one range to the sink's [`HarvestSink::visit_row`] and returns
/// what it captured on the side, collected in range order. The last range runs on
/// the calling thread into the main sink; each other range runs on its own
/// thread into its own sink from the same seeds, and is absorbed into the
/// main sink afterwards.
///
/// With a `hint` (per-row distance bounds), the gates start at their
/// [`seed_gate`]s; when a seeded row of the merged sink ends with a heap
/// that is not full, its seed was too tight and the whole pass reruns
/// unseeded, so for any hint the retained sets are exactly the unseeded
/// ones. Merging keeps that test exact: a range's sink drops a true top-`p`
/// entry only behind `p` better entries of its own, or when the entry's key
/// is above the seed, and a full merged heap holds `p` entries at or below
/// the seed.
pub(crate) fn harvest_pass<T: Send>(
    ps: &ProfiledSeries,
    l: usize,
    p: usize,
    ndp: usize,
    hint: Option<Vec<f64>>,
    chunks: &[(usize, usize)],
    walk: impl Fn((usize, usize), &mut HarvestSink) -> T + Sync,
) -> (Harvested, Vec<T>) {
    let run = |seeds: &[f64]| {
        let mut parts = map_chunks(chunks, |range| {
            let mut sink = HarvestSink::new(ps, l, p, ndp, seeds);
            let out = walk(range, &mut sink);
            (sink, out)
        });
        let (mut sink, last) = parts.pop().expect("a pass has at least one range");
        let mut outs = Vec::with_capacity(parts.len() + 1);
        for (other, out) in parts {
            sink.absorb(other);
            outs.push(out);
        }
        outs.push(last);
        (sink, outs)
    };
    let seeds: Vec<f64> = hint.iter().flatten().map(|&d| seed_gate(d, l)).collect();
    let (mut sink, mut outs) = run(&seeds);
    if !sink.seeds_held() {
        let mut wasted = sink.stats;
        wasted.seed_reruns += 1;
        (sink, outs) = run(&[]);
        sink.stats.merge(wasted);
    }
    (sink.finish(), outs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute_mp::{
        compute_matrix_profile, compute_matrix_profile_with_ws, MpWithProfiles,
    };
    use crate::lb::lb_key;
    use crate::sub_mp::compute_sub_mp_threaded_with_ws;
    use valmod_data::datasets::emg_like;
    use valmod_mp::diagonal::{diagonal_rows, Diagonals};
    use valmod_mp::exclusion::ExclusionPolicy;
    use valmod_mp::workspace::{HarvestHint, DEFAULT_BLOCK};
    use valmod_obs::Registry;

    fn assert_same_harvest(a: &MpWithProfiles, b: &MpWithProfiles, what: &str) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.profile.mp), bits(&b.profile.mp), "{what}: mp");
        assert_eq!(a.profile.ip, b.profile.ip, "{what}: ip");
        assert_eq!(a.partials.len(), b.partials.len(), "{what}: rows");
        for (pa, pb) in a.partials.iter().zip(&b.partials) {
            let set = |prof: &PartialProfile| {
                let mut v: Vec<_> = prof
                    .entries()
                    .iter()
                    .map(|e| (e.neighbor(), e.qt().to_bits(), e.lb_key().to_bits()))
                    .collect();
                v.sort_unstable();
                v
            };
            assert_eq!(set(pa), set(pb), "{what}: row {}", pa.owner);
        }
    }

    /// A recorded full profile at `l` with `threads` workers over `ws`, with
    /// its harvest counters.
    fn recorded_pass(
        ps: &ProfiledSeries,
        l: usize,
        p: usize,
        threads: usize,
        ws: &mut Workspace,
    ) -> (MpWithProfiles, u64, u64) {
        let registry = Registry::new();
        let rec = SharedRecorder::from(registry.clone());
        let out =
            compute_matrix_profile_with_ws(ps, l, p, ExclusionPolicy::HALF, threads, &rec, ws)
                .unwrap();
        let snap = registry.snapshot();
        let count = |k: &str| snap.counter(k).unwrap_or(0);
        (out, count("core.harvest.seeded_rows"), count("core.harvest.seed_reruns"))
    }

    #[test]
    fn fallback_hints_seed_the_next_harvest_without_changing_it() {
        let ps = ProfiledSeries::new(&emg_like(700, 3));
        let (p, policy) = (10, ExclusionPolicy::HALF);
        let mut ws = Workspace::new();
        let mut state = compute_matrix_profile(&ps, 32, p, policy).unwrap();
        let mut fallbacks = 0;
        for l in 33..=40 {
            let noop = SharedRecorder::noop();
            let res = compute_sub_mp_threaded_with_ws(
                &ps,
                &mut state.partials,
                l,
                policy,
                1,
                &noop,
                &mut ws,
            );
            if res.found_motif {
                continue;
            }
            fallbacks += 1;
            let hint = ws.take_harvest_hint().expect("a fallback leaves a hint");
            let cold = compute_matrix_profile(&ps, l, p, policy).unwrap();
            // Every range of a split pass starts from the same seeds.
            for threads in [3, 1] {
                ws.set_harvest_hint(hint.clone());
                let (seeded, seeded_rows, reruns) = recorded_pass(&ps, l, p, threads, &mut ws);
                let what = format!("l={l} threads={threads}");
                assert!(seeded_rows > 0, "{what}: the hint must seed some rows");
                assert_eq!(reruns, 0, "{what}: a real hint must not need a rerun");
                assert_same_harvest(&seeded, &cold, &what);
                state = seeded;
            }
        }
        assert!(fallbacks >= 3, "EMG must fall back (got {fallbacks})");
        assert!(ws.take_harvest_hint().is_none(), "the pass consumes the hint");
    }

    #[test]
    fn too_tight_hints_rerun_and_still_match() {
        let ps = ProfiledSeries::new(&emg_like(500, 5));
        let (l, p) = (24, 6);
        let cold = compute_matrix_profile(&ps, l, p, ExclusionPolicy::HALF).unwrap();
        let rows = cold.partials.len();
        let mut ws = Workspace::new();
        for threads in [1, 3] {
            ws.set_harvest_hint(HarvestHint { l, p, max_dist: vec![0.0; rows] });
            let (zeroed, seeded_rows, reruns) = recorded_pass(&ps, l, p, threads, &mut ws);
            assert_eq!((seeded_rows, reruns), (rows as u64, 1), "threads={threads}");
            assert_same_harvest(&zeroed, &cold, &format!("all-zero hint, threads={threads}"));
        }
        // A hint for another length, p or row count is dropped unused.
        for hint in [
            HarvestHint { l: l + 1, p, max_dist: vec![0.0; rows] },
            HarvestHint { l, p: p + 1, max_dist: vec![0.0; rows] },
            HarvestHint { l, p, max_dist: vec![0.0; rows - 1] },
        ] {
            ws.set_harvest_hint(hint);
            let (out, seeded_rows, reruns) = recorded_pass(&ps, l, p, 1, &mut ws);
            assert_eq!((seeded_rows, reruns), (0, 0));
            assert_same_harvest(&out, &cold, "mismatched hint");
        }
    }

    /// The per-cell reference for [`HarvestSink::visit_row`]: cell `(i, j)`
    /// folded into both minima and offered to row `i`'s heap, then to row
    /// `j`'s, each through its live gate.
    fn visit_cell(sink: &mut HarvestSink, i: usize, j: usize, qt: f64, dist: f64) {
        lex_update(&mut sink.mp[i], &mut sink.ip[i], dist, j);
        lex_update(&mut sink.mp[j], &mut sink.ip[j], dist, i);
        if !dist.is_finite() {
            return;
        }
        sink.stats.offers += 2;
        let lb_key = key_for_pair(dist, sink.l, sink.flats[i], sink.flats[j]);
        if lb_key <= sink.gates[i] {
            sink.offer(i, DpEntry::new(j, qt, lb_key));
        }
        if lb_key <= sink.gates[j] {
            sink.offer(j, DpEntry::new(i, qt, lb_key));
        }
    }

    /// One fused pass at `l` over `threads` ranges of `block`-wide blocks,
    /// each block row handed to [`HarvestSink::visit_row`] or, with
    /// `per_cell`, walked cell by cell in ascending lane order.
    fn walked_pass(
        ps: &ProfiledSeries,
        (l, p, block, threads): (usize, usize, usize, usize),
        hint: Option<Vec<f64>>,
        per_cell: bool,
    ) -> Harvested {
        let mut ws = Workspace::with_block(block);
        let ndp = ps.require_pairs(l).unwrap();
        let diags = Diagonals::prepare(ps, l, &ExclusionPolicy::HALF, &mut ws).unwrap();
        let walk = |range, sink: &mut HarvestSink| {
            diagonal_rows(&diags, range, |i, j0, qt, dist| {
                if per_cell {
                    for (c, (&q, &d)) in qt.iter().zip(dist).enumerate() {
                        visit_cell(sink, i, j0 + c, q, d);
                    }
                } else {
                    sink.visit_row(i, j0, qt, dist);
                }
            })
        };
        harvest_pass(ps, l, p, ndp, hint, &diags.chunks(threads), walk).0
    }

    #[test]
    fn block_rows_offer_every_heap_what_a_per_cell_walk_offers_in_the_same_order() {
        let mut series = emg_like(520, 11).into_values();
        series[200..260].fill(0.25); // flat rows: key-0 ties at every gate
        let ps = ProfiledSeries::from_values(&series).unwrap();
        let (l, p) = (24, 5);
        let cold = walked_pass(&ps, (l, p, DEFAULT_BLOCK, 1), None, true);
        // Per-row bounds that hold: the largest retained distance.
        let bounds: Vec<f64> = (cold.partials.iter())
            .map(|prof| prof.entries().iter().map(|e| prof.entry_dist(&ps, e)).fold(0.0, f64::max))
            .collect();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (block, threads, seeded) in [(DEFAULT_BLOCK, 1, false), (9, 3, false)]
            .into_iter()
            .chain([(DEFAULT_BLOCK, 1, true), (DEFAULT_BLOCK, 3, true), (8, 1, true)])
        {
            let what = format!("block={block} threads={threads} seeded={seeded}");
            let hint = || seeded.then(|| bounds.clone());
            let cells = walked_pass(&ps, (l, p, block, threads), hint(), true);
            let rows = walked_pass(&ps, (l, p, block, threads), hint(), false);
            assert_eq!(bits(&rows.mp), bits(&cells.mp), "{what}: mp");
            assert_eq!(rows.ip, cells.ip, "{what}: ip");
            for (a, b) in rows.partials.iter().zip(&cells.partials) {
                // Heap order, not sorted: the same offers in the same order.
                let heap = |prof: &PartialProfile| {
                    let e = prof.entries().iter();
                    e.map(|e| (e.neighbor(), e.qt().to_bits(), e.lb_key().to_bits()))
                        .collect::<Vec<_>>()
                };
                assert_eq!(heap(a), heap(b), "{what}: row {}", a.owner);
            }
            assert_eq!(rows.stats, cells.stats, "{what}: offers and accepted");
            assert_eq!(rows.stats.seed_reruns, 0, "{what}: the bounds hold");
            assert_eq!(rows.stats.seeded_rows > 0, seeded, "{what}: seeded rows");
        }
    }

    #[test]
    fn branch_free_key_has_the_bits_of_the_branchy_formula() {
        let reference = |d: f64, l: usize, of: bool, nf: bool| -> f64 {
            if of || nf {
                return 0.0;
            }
            let q = 1.0 - (d * d) / (2.0 * l as f64);
            lb_key(q.clamp(-1.0, 1.0), l)
        };
        for l in [1usize, 2, 16, 64, 80, 1000] {
            let top = 2.0 * (l as f64).sqrt();
            let mut dists = vec![0.0, -0.0, 1e-300, 1e-9, top, top * 1.5, f64::INFINITY, f64::NAN];
            dists.extend((0..=400).map(|k| top * k as f64 / 400.0));
            dists.push((l as f64 * 2.0).sqrt()); // q = 0 exactly
            for d in dists {
                for (of, nf) in [(false, false), (true, false), (false, true), (true, true)] {
                    assert_eq!(
                        key_for_pair(d, l, of, nf).to_bits(),
                        reference(d, l, of, nf).to_bits(),
                        "d={d} l={l} flats=({of},{nf})"
                    );
                }
            }
        }
    }

    #[test]
    fn seed_gate_covers_the_key_and_skips_unknown_rows() {
        for l in [16usize, 64] {
            for d in [0.0, 1e-6, 0.5, 3.0, 2.0 * (l as f64).sqrt()] {
                let key = key_for_pair(d, l, false, false);
                let gate = seed_gate(d, l);
                assert!(gate > key, "l={l} d={d}");
                assert!(gate <= key * (1.0 + 1e-8) + 1e-9, "l={l} d={d}: slack too wide");
            }
            assert!(seed_gate(f64::INFINITY, l).is_infinite());
            assert!(seed_gate(f64::NAN, l).is_infinite());
        }
    }
}
