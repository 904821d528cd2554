//! The VALMOD driver (paper Algorithm 1).
//!
//! Computes the matrix profile at `ℓ_min` (harvesting partial profiles),
//! then walks the length range: `ComputeSubMP` first, full
//! `ComputeMatrixProfile` only when the lower bounds could not certify the
//! motif (rare in practice — the paper's headline speed-up).

use valmod_data::error::{Result, ValmodError};
use valmod_data::series::Series;
use valmod_mp::exclusion::ExclusionPolicy;
use valmod_mp::extend::{extend_cells, extend_profile, TailState};
use valmod_mp::matrix_profile::MatrixProfile;
use valmod_mp::motif::MotifPair;
use valmod_mp::ProfiledSeries;
use valmod_obs::{Recorder, SharedRecorder};

use valmod_mp::workspace::Workspace;

use crate::complete_profiles::refine_unknown;
use crate::compute_mp::{
    capture_profile_with_ws, compute_matrix_profile_capture_with_ws,
    compute_matrix_profile_with_ws, MpWithProfiles,
};
use crate::harvest::HarvestSink;
use crate::pairs::BestKPairs;
use crate::profile::{PackedPartials, PartialProfile};
use crate::sub_mp::compute_sub_mp_threaded_with_ws;
use crate::valmp::Valmp;

/// Configuration for a VALMOD run.
#[derive(Debug, Clone)]
pub struct ValmodConfig {
    /// Smallest subsequence length `ℓ_min`.
    pub l_min: usize,
    /// Largest subsequence length `ℓ_max` (inclusive).
    pub l_max: usize,
    /// Number of lower-bound entries retained per distance profile
    /// (the paper's `p`; its default benchmark value is 50).
    pub p: usize,
    /// Trivial-match exclusion policy (paper default: `ℓ/2`).
    pub policy: ExclusionPolicy,
    /// Track the top-K pairs for motif-set discovery (0 = off).
    pub track_pairs: usize,
    /// Worker threads for the profile computations (1 = sequential,
    /// 0 = all available cores). Every thread count produces the same
    /// output, bit for bit.
    pub threads: usize,
}

impl ValmodConfig {
    /// A configuration with the paper's defaults for the given range.
    pub fn new(l_min: usize, l_max: usize) -> Self {
        ValmodConfig {
            l_min,
            l_max,
            p: 50,
            policy: ExclusionPolicy::HALF,
            track_pairs: 0,
            threads: 1,
        }
    }

    /// Sets `p`.
    pub fn with_p(mut self, p: usize) -> Self {
        self.p = p;
        self
    }

    /// Sets the exclusion policy.
    pub fn with_policy(mut self, policy: ExclusionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Enables top-K pair tracking (needed for motif sets).
    pub fn with_pair_tracking(mut self, k: usize) -> Self {
        self.track_pairs = k;
        self
    }

    /// Sets the worker thread count (1 = sequential, 0 = all cores).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The canonical form of this configuration: every field that cannot
    /// change the *result* of a run is normalised away. Two configs with
    /// equal canonical forms produce semantically identical output, so
    /// result caches must key on this form, never on the raw config.
    ///
    /// Normalisations: `threads` is forced to 1 (every thread count yields
    /// the same bits) and the exclusion fraction is reduced to lowest terms
    /// (`2/4` ≡ `1/2`).
    pub fn canonical(&self) -> ValmodConfig {
        ValmodConfig {
            l_min: self.l_min,
            l_max: self.l_max,
            p: self.p,
            policy: self.policy.reduced(),
            track_pairs: self.track_pairs,
            threads: 1,
        }
    }

    /// A stable, human-readable cache key for the canonical form, e.g.
    /// `l=64..128;p=50;excl=1/2;track=0`.
    pub fn cache_key(&self) -> String {
        let c = self.canonical();
        format!(
            "l={}..{};p={};excl={}/{};track={}",
            c.l_min,
            c.l_max,
            c.p,
            c.policy.num(),
            c.policy.den(),
            c.track_pairs
        )
    }

    /// A 64-bit FNV-1a fingerprint of [`ValmodConfig::cache_key`] — a
    /// compact equality proxy for cache indexing (the full key should still
    /// be stored alongside to rule out collisions).
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        for b in self.cache_key().bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
        h
    }

    /// Validates the series-independent parts of the configuration (range
    /// shape and `p`). Use [`ValmodConfig::validate_for`] when the series
    /// length is known — it additionally rejects ranges the series cannot
    /// accommodate.
    pub fn validate(&self) -> Result<()> {
        if self.l_min == 0 || self.l_min > self.l_max {
            return Err(ValmodError::InvalidParameter(format!(
                "invalid length range [{}, {}]",
                self.l_min, self.l_max
            )));
        }
        if self.p == 0 {
            return Err(ValmodError::InvalidParameter("p must be positive".into()));
        }
        Ok(())
    }

    /// Full validation against a series of `n` points — the single
    /// validation path shared by the driver, the baselines, and the CLI
    /// (see [`crate::validate`]).
    pub fn validate_for(&self, n: usize) -> Result<()> {
        crate::validate::validate_valmod_params(n, self.l_min, self.l_max, self.p)
    }
}

/// How one length of the range was resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LengthMethod {
    /// The anchor length, solved by `ComputeMatrixProfile`.
    FullProfile,
    /// Solved by `ComputeSubMP` using only retained entries.
    SubMp,
    /// `ComputeSubMP` plus its last-chance partial recomputation.
    SubMpRefined,
    /// `ComputeSubMP` failed to certify the motif; the full profile was
    /// recomputed (paper Algorithm 1, line 13).
    Fallback,
}

/// The full per-length artifact of one length in a VALMOD run: the
/// (sub-)matrix profile row minima and nearest-neighbour indices at length
/// `l`, plus the accounting that [`LengthReport`] summarises.
///
/// This is the unit of reuse for variable-length query planning: fragments
/// for a contiguous ascending length range recompose into a [`ValmodOutput`]
/// via [`compose_output`], and a fragment is a pure function of
/// (series, anchor length, `l`, `p`, exclusion policy) — see
/// [`Valmod::run_lengths_on`].
#[derive(Debug, Clone)]
pub struct LengthProfile {
    /// Subsequence length.
    pub l: usize,
    /// Row minima (`⊥` encoded as a non-finite value for rows the lower
    /// bounds could not certify).
    pub mp: Vec<f64>,
    /// Nearest-neighbour index per row (`usize::MAX` when unknown).
    pub ip: Vec<usize>,
    /// How this length was resolved.
    pub method: LengthMethod,
    /// The motif pair of this length (`None` when every pair is excluded).
    pub motif: Option<MotifPair>,
    /// Non-⊥ entries of `mp`.
    pub known_entries: usize,
    /// Rows certified valid by the lower bound.
    pub valid_rows: usize,
    /// Rows left unknown in the first pass.
    pub nonvalid_rows: usize,
    /// Rows recomputed by the last-chance pass.
    pub recomputed_rows: usize,
}

impl LengthProfile {
    /// The summary form kept in [`ValmodOutput::per_length`].
    pub fn report(&self) -> LengthReport {
        LengthReport {
            l: self.l,
            method: self.method,
            motif: self.motif,
            known_entries: self.known_entries,
            valid_rows: self.valid_rows,
            nonvalid_rows: self.nonvalid_rows,
            recomputed_rows: self.recomputed_rows,
        }
    }

    /// An estimate of the heap bytes this fragment holds (for cache
    /// byte-budget accounting).
    pub fn heap_bytes(&self) -> usize {
        self.mp.len() * std::mem::size_of::<f64>() + self.ip.len() * std::mem::size_of::<usize>()
    }
}

/// Per-length instrumentation (drives the paper's Figs. 9 and 14).
#[derive(Debug, Clone)]
pub struct LengthReport {
    /// Subsequence length.
    pub l: usize,
    /// How the motif of this length was obtained.
    pub method: LengthMethod,
    /// The motif pair of this length (`None` when every pair is excluded).
    pub motif: Option<MotifPair>,
    /// Non-⊥ entries of the (sub-)matrix profile (Fig. 14, right).
    pub known_entries: usize,
    /// Rows certified valid by the lower bound.
    pub valid_rows: usize,
    /// Rows left unknown in the first pass.
    pub nonvalid_rows: usize,
    /// Rows recomputed by the last-chance pass.
    pub recomputed_rows: usize,
}

/// Output of a VALMOD run.
#[derive(Debug, Clone)]
pub struct ValmodOutput {
    /// The variable-length matrix profile.
    pub valmp: Valmp,
    /// The motif pair of each length in `[ℓ_min, ℓ_max]`, in order
    /// (Problem 1's answer).
    pub per_length: Vec<LengthReport>,
    /// Top-K pairs with profile snapshots, when tracking was enabled.
    pub best_pairs: Option<BestKPairs>,
}

impl ValmodOutput {
    /// The motif pairs per length (Problem 1), skipping lengths with no
    /// valid pair.
    pub fn motifs_per_length(&self) -> impl Iterator<Item = &MotifPair> + '_ {
        self.per_length.iter().filter_map(|r| r.motif.as_ref())
    }

    /// The overall best motif under the length-normalised ranking.
    pub fn best_motif(&self) -> Option<MotifPair> {
        self.valmp.best_pair()
    }
}

/// The unified entry point for a VALMOD run: a builder over
/// [`ValmodConfig`] plus an optional [`SharedRecorder`] for observability.
///
/// This is the one public way to run the algorithm.
///
/// ```
/// use valmod_core::{Valmod, ValmodOutput};
/// use valmod_data::generators::random_walk;
/// use valmod_data::series::Series;
///
/// let series = Series::new(random_walk(400, 7)).unwrap();
/// let out: ValmodOutput = Valmod::new(16, 32).p(5).threads(2).run(&series).unwrap();
/// assert_eq!(out.per_length.len(), 17);
/// ```
#[derive(Debug, Clone)]
pub struct Valmod {
    config: ValmodConfig,
    recorder: SharedRecorder,
}

impl Valmod {
    /// A run over the inclusive length range `[l_min, l_max]` with the
    /// paper's default knobs (`p = 50`, `ℓ/2` exclusion, one thread, no
    /// pair tracking) and a disabled recorder.
    pub fn new(l_min: usize, l_max: usize) -> Self {
        Valmod::from_config(ValmodConfig::new(l_min, l_max))
    }

    /// Wraps an existing configuration (recorder starts disabled).
    pub fn from_config(config: ValmodConfig) -> Self {
        Valmod { config, recorder: SharedRecorder::noop() }
    }

    /// Sets `p`, the number of lower-bound entries retained per row.
    pub fn p(mut self, p: usize) -> Self {
        self.config.p = p;
        self
    }

    /// Sets the trivial-match exclusion policy.
    pub fn policy(mut self, policy: ExclusionPolicy) -> Self {
        self.config.policy = policy;
        self
    }

    /// Enables top-K pair tracking (needed for motif sets).
    pub fn track_pairs(mut self, k: usize) -> Self {
        self.config.track_pairs = k;
        self
    }

    /// Sets the worker thread count (1 = sequential, 0 = all cores).
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Attaches a recorder; every layer of the run (STOMP chunks, sub-MP
    /// advances, lower-bound margins, fallbacks) reports into it. See the
    /// `valmod-obs` crate for the registry and key conventions.
    pub fn recorder(mut self, recorder: SharedRecorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// The effective configuration.
    pub fn config(&self) -> &ValmodConfig {
        &self.config
    }

    /// Runs VALMOD (paper Algorithm 1) on a series.
    pub fn run(&self, series: &Series) -> Result<ValmodOutput> {
        let ps = ProfiledSeries::new(series);
        self.run_on(&ps)
    }

    /// Runs VALMOD on an already-prepared [`ProfiledSeries`].
    pub fn run_on(&self, ps: &ProfiledSeries) -> Result<ValmodOutput> {
        run_valmod(ps, &self.config, &self.recorder)
    }

    /// Computes the per-length [`LengthProfile`] fragments for the
    /// sub-range `[l_lo, l_hi]`, ignoring the builder's own length range
    /// but keeping its `p`, exclusion policy, threads, and recorder.
    ///
    /// The run anchors a fresh full profile at `l_lo` and advances length
    /// by length to `l_hi`, exactly as [`Valmod::run_on`] does for its own
    /// range — so a fragment is a pure function of
    /// (series, `l_lo`, `l`, `p`, policy), independent of `l_hi` and of any
    /// other fragments. This is the resumable entry point the serve-layer
    /// query planner uses: it caches fragments keyed by their anchor and
    /// recomposes overlapping variable-length queries with
    /// [`compose_output`].
    pub fn run_lengths_on(
        &self,
        ps: &ProfiledSeries,
        l_lo: usize,
        l_hi: usize,
    ) -> Result<Vec<LengthProfile>> {
        let mut cfg = self.config.clone();
        cfg.l_min = l_lo;
        cfg.l_max = l_hi;
        cfg.validate_for(ps.len())?;
        let recorder = &self.recorder;
        let _span = valmod_obs::span!(recorder, "core.valmod.segment_us");
        let mut out = Vec::with_capacity(l_hi - l_lo + 1);
        drive_lengths(ps, &cfg, recorder, false, |lp, _| out.push(lp))?;
        Ok(out)
    }

    /// [`Valmod::run_lengths_on`] that additionally returns the
    /// [`SegmentState`] of the segment — the anchor artifacts that let the
    /// same fragments be *replayed* later ([`SegmentState::replay`]) and
    /// *extended* under appends ([`SegmentState::extend`]) instead of
    /// recomputed. The fragments are bit-identical to
    /// [`Valmod::run_lengths_on`]'s.
    ///
    /// Capture works at every thread count: each diagonal range captures its
    /// own chain heads. The state is `None` only for a series whose row
    /// indices do not fit the packed `u32` neighbours.
    ///
    /// A single-length segment (`l_lo == l_hi`) never advances, so it runs
    /// no harvest and its state holds no `listDP`: just the anchor profile
    /// and its tail, which do not depend on `p`.
    pub fn run_lengths_capturing(
        &self,
        ps: &ProfiledSeries,
        l_lo: usize,
        l_hi: usize,
    ) -> Result<(Vec<LengthProfile>, Option<SegmentState>)> {
        let mut cfg = self.config.clone();
        cfg.l_min = l_lo;
        cfg.l_max = l_hi;
        cfg.validate_for(ps.len())?;
        let recorder = &self.recorder;
        let _span = valmod_obs::span!(recorder, "core.valmod.segment_us");
        let mut out = Vec::with_capacity(l_hi - l_lo + 1);
        ps.require_pairs(cfg.l_max)?;
        let mut ws = Workspace::new();
        if l_lo == l_hi {
            let (profile, tail) =
                capture_profile_with_ws(ps, l_lo, cfg.policy, cfg.threads, recorder, &mut ws)?;
            out.push(anchor_profile(&profile, l_lo));
            let n = ps.len();
            let seg =
                SegmentState { config: cfg, n, extended: false, profile, partials: None, tail };
            return Ok((out, Some(seg)));
        }
        let (mut walk, tail) = compute_matrix_profile_capture_with_ws(
            ps,
            l_lo,
            cfg.p,
            cfg.policy,
            cfg.threads,
            recorder,
            &mut ws,
        )?;
        // Pack before the walk advances the partials in place.
        let seg = PackedPartials::pack(&walk.partials, l_lo, cfg.p).map(|partials| SegmentState {
            config: cfg.clone(),
            n: ps.len(),
            extended: false,
            profile: walk.profile.clone(),
            partials: Some(partials),
            tail,
        });
        out.push(anchor_profile(&walk.profile, l_lo));
        advance_walk(ps, &cfg, recorder, &mut ws, &mut walk, false, &mut |lp, _| out.push(lp))?;
        Ok((out, seg))
    }
}

/// The cached artifacts of one anchor segment: the pre-advance anchor
/// profile, its harvested partial profiles (packed, see below), and the
/// diagonal tail ([`TailState`]) of the fused kernel that produced them.
///
/// A `SegmentState` makes a segment *resumable* in two directions:
///
/// * [`SegmentState::replay`] reruns the `ComputeSubMP` length walk from the
///   cached anchor to any `l_hi` the series supports — bit-identical to
///   [`Valmod::run_lengths_on`], minus the `O(n²)` anchor cost.
/// * [`SegmentState::extend`] advances the anchor artifacts over appended
///   samples in `O(k·n)`: the profile grows through the captured tail
///   (bit-identical to a cold anchor, see [`valmod_mp::extend`]), and every
///   new cell is offered to the partial profiles exactly as the cold fused
///   harvest would. New offers can only displace old entries the cold run
///   would also have displaced — the heap keeps the `p` smallest-key entries
///   under a strict total order, independent of offer order — so a
///   subsequent replay equals a cold run over the grown series bit for bit
///   (`valmod-check`'s `extend` oracle holds this under randomized append
///   schedules).
///
/// The partial profiles dominate the footprint, so they are held packed
/// (neighbour and dot product per entry, 12 bytes instead of 32) and
/// rebuilt on use, entry for entry in the same heap order — packing is
/// invisible to every result. A single-length segment holds none: it
/// replays only its anchor and extends through
/// [`valmod_mp::extend_profile`], about 24 bytes per row.
#[derive(Debug, Clone)]
pub struct SegmentState {
    /// The segment's configuration at capture time (`l_min` is the anchor;
    /// `l_max` is advisory — replay chooses its own `l_hi`).
    config: ValmodConfig,
    /// Samples covered so far.
    n: usize,
    /// Whether [`SegmentState::extend`] has grown the state at least once.
    extended: bool,
    /// Pre-advance anchor profile.
    profile: MatrixProfile,
    /// Pre-advance `listDP`, packed; `None` for a single-length segment.
    partials: Option<PackedPartials>,
    /// The diagonal chain heads the extension continues from.
    tail: TailState,
}

impl SegmentState {
    /// The anchor length the segment's fragments are keyed by.
    #[inline]
    pub fn anchor(&self) -> usize {
        self.config.l_min
    }

    /// Number of samples the state currently covers.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Whether the state has been extended over appended samples at least
    /// once since capture — evidence that its series really grows, which
    /// the serve layer's parking policy rewards.
    #[inline]
    pub fn was_extended(&self) -> bool {
        self.extended
    }

    /// Approximate heap bytes held (for cache byte-budget accounting):
    /// 12 per retained `listDP` entry plus under 32 per row (anchor
    /// profile, fill count, tail).
    pub fn heap_bytes(&self) -> usize {
        self.profile.mp.len() * std::mem::size_of::<f64>()
            + self.profile.ip.len() * std::mem::size_of::<usize>()
            + self.partials.as_ref().map_or(0, PackedPartials::heap_bytes)
            + self.tail.heap_bytes()
    }

    /// Advances the anchor artifacts over the appended tail of `ps` in
    /// `O(k·n)`. `ps` must be the grown series profiled with the same pinned
    /// offset the segment was captured under; a rejected series leaves the
    /// state untouched.
    pub fn extend(&mut self, ps: &ProfiledSeries, recorder: &SharedRecorder) -> Result<()> {
        let (old_ndp, new_ndp) = self.tail.check_grow(ps)?;
        if old_ndp == new_ndp && ps.len() == self.n {
            return Ok(());
        }
        if u32::try_from(new_ndp).is_err() {
            return Err(ValmodError::InvalidParameter(format!(
                "segment extend: {new_ndp} rows exceed the packed u32 neighbour range"
            )));
        }
        let _span = valmod_obs::span!(recorder, "core.valmod.extend_us");
        if recorder.enabled() {
            recorder.add("core.valmod.extends", 1);
        }
        let Some(packed) = &self.partials else {
            extend_profile(&mut self.profile, &mut self.tail, ps)?;
            self.n = ps.len();
            self.extended = true;
            return Ok(());
        };
        let (l, p) = (self.config.l_min, self.config.p);
        let mut partials = packed.unpack(ps);
        partials.reserve(new_ndp - old_ndp);
        for r in old_ndp..new_ndp {
            partials.push(PartialProfile::new(r, l, ps.std(r, l), p, new_ndp));
        }
        let mut mp = std::mem::take(&mut self.profile.mp);
        let mut ip = std::mem::take(&mut self.profile.ip);
        mp.resize(new_ndp, f64::INFINITY);
        ip.resize(new_ndp, usize::MAX);
        let mut sink = HarvestSink::resume(ps, l, mp, ip, partials);
        let grown = extend_cells(&mut self.tail, ps, |r, j0, qt, d| sink.visit_row(r, j0, qt, d));
        let harvest = sink.finish();
        (self.profile.mp, self.profile.ip) = (harvest.mp, harvest.ip);
        grown?;
        harvest.stats.record(recorder);
        self.partials =
            Some(PackedPartials::pack(&harvest.partials, l, p).expect("row count checked above"));
        self.n = ps.len();
        self.extended = true;
        Ok(())
    }

    /// Replays the segment's length walk from the cached anchor up to
    /// `l_hi` (inclusive), bit-identical to
    /// [`Valmod::run_lengths_on`]`(ps, anchor, l_hi)` over the same series —
    /// including the full-recompute fallback on lengths the lower bounds
    /// cannot certify. `ps` must cover exactly the samples the state does
    /// (extend first after an append). A single-length state replays only
    /// its anchor: any `l_hi` past it is an error.
    pub fn replay(
        &self,
        ps: &ProfiledSeries,
        l_hi: usize,
        recorder: &SharedRecorder,
    ) -> Result<Vec<LengthProfile>> {
        if ps.len() != self.n {
            return Err(ValmodError::InvalidParameter(format!(
                "segment replay: state covers {} samples but the series has {} (extend first)",
                self.n,
                ps.len()
            )));
        }
        let mut cfg = self.config.clone();
        cfg.l_max = l_hi;
        cfg.validate_for(ps.len())?;
        let _span = valmod_obs::span!(recorder, "core.valmod.segment_us");
        let mut out = Vec::with_capacity(l_hi - cfg.l_min + 1);
        out.push(anchor_profile(&self.profile, cfg.l_min));
        if l_hi == cfg.l_min {
            return Ok(out);
        }
        let Some(packed) = &self.partials else {
            return Err(ValmodError::InvalidParameter(format!(
                "segment replay: a single-length state at {} cannot advance to {l_hi}",
                cfg.l_min
            )));
        };
        let mut ws = Workspace::new();
        let mut walk =
            MpWithProfiles { profile: self.profile.clone(), partials: packed.unpack(ps) };
        advance_walk(ps, &cfg, recorder, &mut ws, &mut walk, false, &mut |lp, _| out.push(lp))?;
        Ok(out)
    }
}

/// Recomposes a [`ValmodOutput`] from per-length fragments covering a
/// contiguous, ascending length range (the first fragment must be the
/// smallest length and hold the full `ndp(ℓ_min)` rows).
///
/// [`Valmp::update`] folds per-slot minima one length at a time, so feeding
/// it the same per-length profiles — whether freshly computed or replayed
/// from a fragment cache — produces a bit-identical VALMP. `best_pairs` is
/// always `None`: top-K pair tracking needs the live partial profiles at
/// offer time and cannot be reconstructed from fragments.
pub fn compose_output<'a, I>(fragments: I) -> Result<ValmodOutput>
where
    I: IntoIterator<Item = &'a LengthProfile>,
{
    let mut iter = fragments.into_iter();
    let first = iter
        .next()
        .ok_or_else(|| ValmodError::InvalidParameter("compose_output: no fragments".into()))?;
    let mut valmp = Valmp::new(first.mp.len());
    let mut per_length = Vec::new();
    for (expected, lp) in (first.l..).zip(std::iter::once(first).chain(iter)) {
        if lp.l != expected {
            return Err(ValmodError::InvalidParameter(format!(
                "compose_output: fragments must be contiguous ascending lengths; expected {expected}, got {}",
                lp.l
            )));
        }
        valmp.update(&lp.mp, &lp.ip, lp.l);
        per_length.push(lp.report());
    }
    Ok(ValmodOutput { valmp, per_length, best_pairs: None })
}

/// The driver loop shared by every public entry point.
fn run_valmod(
    ps: &ProfiledSeries,
    config: &ValmodConfig,
    recorder: &SharedRecorder,
) -> Result<ValmodOutput> {
    config.validate_for(ps.len())?;
    let _span = valmod_obs::span!(recorder, "core.valmod.run_us");
    let ndp_min = ps.num_subsequences(config.l_min);

    let mut valmp = Valmp::new(ndp_min);
    let mut tracker = (config.track_pairs > 0).then(|| BestKPairs::new(config.track_pairs));
    let mut per_length = Vec::with_capacity(config.l_max - config.l_min + 1);

    drive_lengths(ps, config, recorder, false, |lp, partials| {
        let improved = valmp.update(&lp.mp, &lp.ip, lp.l);
        if let Some(t) = tracker.as_mut() {
            for &i in &improved {
                t.offer(ps, i, lp.ip[i], lp.mp[i], lp.l, partials);
            }
        }
        per_length.push(lp.report());
    })?;

    Ok(ValmodOutput { valmp, per_length, best_pairs: tracker })
}

/// The length walk of Algorithm 1: anchor a full profile at
/// `config.l_min`, then `ComputeSubMP` per subsequent length with the full
/// recomputation fallback. Each resolved length is handed to `visit`
/// together with the partial profiles live at that point (which top-K pair
/// tracking needs). [`run_valmod`], [`Valmod::run_lengths_on`] and, with
/// `complete`, [`complete_profiles`](crate::complete_profiles()) are thin
/// folds over this walk.
pub(crate) fn drive_lengths(
    ps: &ProfiledSeries,
    config: &ValmodConfig,
    recorder: &SharedRecorder,
    complete: bool,
    mut visit: impl FnMut(LengthProfile, &[PartialProfile]),
) -> Result<()> {
    ps.require_pairs(config.l_max)?;

    // One workspace for the whole walk: the anchor profile, every fallback
    // recomputation, and every last-chance refinement share its FFT plan
    // cache and scratch buffers, so each transform size is planned once for
    // the entire length range.
    let mut ws = Workspace::new();

    // ℓ_min: full profile + harvest (Algorithm 1, line 5), the fused
    // diagonal pass split over `threads` diagonal ranges.
    let mut state = compute_matrix_profile_with_ws(
        ps,
        config.l_min,
        config.p,
        config.policy,
        config.threads,
        recorder,
        &mut ws,
    )?;
    visit(anchor_profile(&state.profile, config.l_min), &state.partials);
    advance_walk(ps, config, recorder, &mut ws, &mut state, complete, &mut visit)
}

/// The anchor's [`LengthProfile`] — emitted identically by the cold walk
/// ([`drive_lengths`]) and by [`SegmentState::replay`], which is what makes
/// replayed fragments bit-identical to freshly computed ones.
fn anchor_profile(profile: &MatrixProfile, l_min: usize) -> LengthProfile {
    LengthProfile {
        l: l_min,
        mp: profile.mp.clone(),
        ip: profile.ip.clone(),
        method: LengthMethod::FullProfile,
        motif: profile.motif_pair().map(|(a, b, d)| MotifPair::new(a, b, l_min, d)),
        known_entries: profile.len(),
        valid_rows: profile.len(),
        nonvalid_rows: 0,
        recomputed_rows: 0,
    }
}

/// Lengths `ℓ_min+1 ..= ℓ_max` of Algorithm 1 (lines 7–16): `ComputeSubMP`
/// per length with the full-recompute fallback. Shared verbatim by the cold
/// walk and segment replay; `state` holds the live anchor artifacts and is
/// mutated by the advances (and replaced entirely by a fallback).
///
/// A `complete` walk also resolves every row a certified length left ⊥
/// ([`refine_unknown`]): few enough are refined one by one, and otherwise
/// the length takes the fallback, so every emitted row is known.
pub(crate) fn advance_walk(
    ps: &ProfiledSeries,
    config: &ValmodConfig,
    recorder: &SharedRecorder,
    ws: &mut Workspace,
    state: &mut MpWithProfiles,
    complete: bool,
    visit: &mut impl FnMut(LengthProfile, &[PartialProfile]),
) -> Result<()> {
    let policy = config.policy;
    for l in (config.l_min + 1)..=config.l_max {
        let mut res = compute_sub_mp_threaded_with_ws(
            ps,
            &mut state.partials,
            l,
            policy,
            config.threads,
            recorder,
            ws,
        );
        let certified = res.found_motif
            && (!complete || refine_unknown(ps, config, l, &mut state.partials, &mut res, ws));
        let (mp_vals, ip_vals, method, known, valid, nonvalid, recomputed);
        if certified {
            method = if res.recomputed_rows > 0 {
                LengthMethod::SubMpRefined
            } else {
                LengthMethod::SubMp
            };
            known = res.known_entries();
            valid = res.valid_rows;
            nonvalid = res.nonvalid_rows;
            recomputed = res.recomputed_rows;
            mp_vals = res.sub_mp;
            ip_vals = res.ip;
        } else {
            // Fallback: recompute the full profile and re-harvest. The
            // valid/non-valid split still describes the *first pass* that
            // failed to certify the motif, or left a complete walk too many
            // ⊥ rows (so the two always sum to the row count); `known`
            // reflects the recomputed, fully-known profile.
            if recorder.enabled() {
                recorder.add("core.lb.fallback", 1);
            }
            // Free the old `listDP` before the pass harvests the new one, so
            // the two never peak together: the pass reads only the hint
            // ComputeSubMP left in the workspace.
            drop(std::mem::take(&mut state.partials));
            *state = compute_matrix_profile_with_ws(
                ps,
                l,
                config.p,
                policy,
                config.threads,
                recorder,
                ws,
            )?;
            method = LengthMethod::Fallback;
            known = state.profile.len();
            valid = res.valid_rows;
            nonvalid = res.nonvalid_rows;
            recomputed = 0;
            mp_vals = state.profile.mp.clone();
            ip_vals = state.profile.ip.clone();
        }
        let motif = best_finite(&mp_vals, &ip_vals).map(|(a, b, d)| MotifPair::new(a, b, l, d));
        visit(
            LengthProfile {
                l,
                mp: mp_vals,
                ip: ip_vals,
                method,
                motif,
                known_entries: known,
                valid_rows: valid,
                nonvalid_rows: nonvalid,
                recomputed_rows: recomputed,
            },
            &state.partials,
        );
    }

    Ok(())
}

fn best_finite(mp: &[f64], ip: &[usize]) -> Option<(usize, usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &d) in mp.iter().enumerate() {
        if d.is_finite() && best.is_none_or(|(_, bd)| d < bd) {
            best = Some((i, d));
        }
    }
    best.map(|(i, d)| (i, ip[i], d))
}

#[cfg(test)]
mod tests {
    use super::*;
    use valmod_data::generators::{plant_motif, random_walk};
    use valmod_mp::stomp::stomp;

    #[test]
    fn motif_per_length_matches_stomp_oracle() {
        let series = Series::new(random_walk(400, 101)).unwrap();
        let out = Valmod::new(16, 32).p(5).run(&series).unwrap();
        let ps = ProfiledSeries::new(&series);
        assert_eq!(out.per_length.len(), 17);
        for report in &out.per_length {
            let oracle = stomp(&ps, report.l, ExclusionPolicy::HALF).unwrap();
            match (report.motif, oracle.motif_pair()) {
                (Some(m), Some((_, _, d))) => {
                    assert!(
                        (m.dist - d).abs() < 1e-6,
                        "l={}: VALMOD {} vs STOMP {}",
                        report.l,
                        m.dist,
                        d
                    );
                }
                (None, None) => {}
                other => panic!("l={}: presence mismatch {:?}", report.l, other.0),
            }
        }
    }

    #[test]
    fn valmp_matches_minimum_over_lengths() {
        let series = Series::new(random_walk(300, 103)).unwrap();
        let out = Valmod::new(16, 24).p(4).run(&series).unwrap();
        let ps = ProfiledSeries::new(&series);
        // Oracle: per-offset minimum of length-normalised distances over all
        // lengths — but only offsets whose rows were *known* can be compared;
        // VALMP is exact on the motif slots by construction. Here we verify
        // against the full per-length STOMP profiles for offsets where
        // VALMOD claims a value no worse than the oracle (VALMP values are
        // achievable distances, hence ≥ the oracle minimum).
        let mut oracle = vec![f64::INFINITY; out.valmp.len()];
        for l in 16..=24 {
            let p = stomp(&ps, l, ExclusionPolicy::HALF).unwrap();
            for (i, &d) in p.mp.iter().enumerate() {
                if d.is_finite() {
                    let nd = valmod_mp::distance::length_normalize(d, l);
                    if nd < oracle[i] {
                        oracle[i] = nd;
                    }
                }
            }
        }
        for (i, (&got, &want)) in out.valmp.norm_distances.iter().zip(&oracle).enumerate() {
            if got.is_finite() {
                assert!(got >= want - 1e-7, "slot {i}: VALMP {got} below oracle {want}");
            }
        }
        // And the global best must match exactly.
        let best = out.best_motif().unwrap();
        let oracle_best = oracle.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!((best.norm_dist() - oracle_best).abs() < 1e-6);
    }

    #[test]
    fn planted_motif_is_found_at_its_length() {
        let (series, planted) = plant_motif(3000, 64, 2, 0.001, 7);
        let series = Series::new(series).unwrap();
        let out = Valmod::new(48, 80).p(8).run(&series).unwrap();
        let best = out.best_motif().unwrap();
        // Shorter lengths in the range may lock onto an interior alignment
        // of the planted pattern, shifting both offsets by the same amount —
        // still the planted motif. Require both members to land inside the
        // planted instances with identical spacing.
        assert!(
            planted.offsets.iter().any(|&o| best.a.abs_diff(o) < 64)
                && planted.offsets.iter().any(|&o| best.b.abs_diff(o) < 64)
                && best.b - best.a == planted.offsets[1] - planted.offsets[0],
            "best motif {:?} should be the planted pair at {:?}",
            (best.a, best.b),
            planted.offsets
        );
    }

    #[test]
    fn pair_tracking_produces_sorted_candidates() {
        let series = Series::new(random_walk(300, 107)).unwrap();
        let out = Valmod::new(16, 24).p(4).track_pairs(5).run(&series).unwrap();
        let best = out.best_pairs.unwrap();
        assert!(!best.is_empty());
        for w in best.pairs().windows(2) {
            assert!(w[0].norm_dist <= w[1].norm_dist);
        }
        // The best tracked pair agrees with the VALMP best motif.
        let vb = out.valmp.best_pair().unwrap();
        assert!((best.pairs()[0].norm_dist - vb.norm_dist()).abs() < 1e-9);
    }

    #[test]
    fn best_pairs_do_not_depend_on_threads_or_the_recorder() {
        use crate::pairs::PartialSnapshot;
        use valmod_obs::Registry;
        let series = valmod_data::datasets::ecg_like(2048, 1);
        let snap_bits = |s: &PartialSnapshot| {
            let neighbors: Vec<_> = s.neighbors.iter().map(|&(n, d)| (n, d.to_bits())).collect();
            (s.owner, s.l, s.max_lb.to_bits(), neighbors)
        };
        let run = |threads: usize, recorded: bool| {
            let recorder = if recorded {
                SharedRecorder::from(Registry::new())
            } else {
                SharedRecorder::noop()
            };
            let out = Valmod::new(64, 72)
                .p(50)
                .threads(threads)
                .track_pairs(5)
                .recorder(recorder)
                .run(&series)
                .unwrap();
            let best = out.best_pairs.unwrap();
            assert_eq!(best.len(), 5);
            (best.pairs().iter())
                .map(|c| {
                    let head = (c.a, c.b, c.l, c.dist.to_bits(), c.norm_dist.to_bits());
                    (head, snap_bits(&c.part_a), snap_bits(&c.part_b))
                })
                .collect::<Vec<_>>()
        };
        let reference = run(1, false);
        for (threads, recorded) in [(2, false), (1, true), (2, true)] {
            assert!(
                run(threads, recorded) == reference,
                "threads={threads} recorded={recorded}: best_pairs differ"
            );
        }
    }

    #[test]
    fn row_accounting_is_consistent_for_every_method() {
        // Regression: the fallback branch used to report
        // `valid_rows = row count` while keeping the failed first pass's
        // `nonvalid_rows`, making the two sum past the number of rows.
        // This construction (random walk + noisy sine tail, small p)
        // deterministically exercises every `LengthMethod` variant.
        let mut values = random_walk(600, 1);
        values.extend_from_slice(&valmod_data::generators::sine_mixture(
            200,
            &[(0.1, 3.0)],
            0.4,
            2,
        ));
        let n = values.len();
        let series = Series::new(values).unwrap();
        let out = Valmod::new(16, 48).p(3).run(&series).unwrap();
        let mut seen_fallback = false;
        for r in &out.per_length {
            let rows = n - r.l + 1;
            assert!(
                r.valid_rows + r.nonvalid_rows <= rows,
                "l={}: {} valid + {} nonvalid > {} rows ({:?})",
                r.l,
                r.valid_rows,
                r.nonvalid_rows,
                rows,
                r.method
            );
            match r.method {
                LengthMethod::FullProfile => {
                    assert_eq!(r.nonvalid_rows, 0, "l={}", r.l);
                    assert_eq!(r.valid_rows, rows, "l={}", r.l);
                }
                // The first pass classifies every row exactly once.
                LengthMethod::SubMp | LengthMethod::SubMpRefined | LengthMethod::Fallback => {
                    assert_eq!(r.valid_rows + r.nonvalid_rows, rows, "l={}", r.l);
                }
            }
            if r.method == LengthMethod::Fallback {
                seen_fallback = true;
                assert_eq!(r.recomputed_rows, 0, "l={}", r.l);
                assert_eq!(r.known_entries, rows, "l={}", r.l);
            }
        }
        assert!(seen_fallback, "construction no longer reaches the fallback branch");
    }

    #[test]
    fn canonicalization_ignores_execution_knobs() {
        let base = ValmodConfig::new(64, 128).with_p(50);
        let threaded = base.clone().with_threads(8);
        let unreduced = base.clone().with_policy(ExclusionPolicy::new(2, 4));
        assert_eq!(base.cache_key(), "l=64..128;p=50;excl=1/2;track=0");
        assert_eq!(base.cache_key(), threaded.cache_key());
        assert_eq!(base.cache_key(), unreduced.cache_key());
        assert_eq!(base.fingerprint(), threaded.fingerprint());
        assert_eq!(base.fingerprint(), unreduced.fingerprint());
        // Result-affecting fields do change the key.
        for other in [
            base.clone().with_p(5),
            base.clone().with_pair_tracking(10),
            base.clone().with_policy(ExclusionPolicy::QUARTER),
            ValmodConfig::new(64, 129).with_p(50),
        ] {
            assert_ne!(base.cache_key(), other.cache_key());
            assert_ne!(base.fingerprint(), other.fingerprint());
        }
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let series = Series::new(random_walk(100, 1)).unwrap();
        assert!(Valmod::new(0, 10).run(&series).is_err());
        assert!(Valmod::new(20, 10).run(&series).is_err());
        assert!(Valmod::new(10, 20).p(0).run(&series).is_err());
        assert!(Valmod::new(10, 200).run(&series).is_err()); // too long
    }

    #[test]
    fn an_oversized_p_answers_like_p_equal_to_n() {
        // Regression: every heap used to reserve `p` slots up front, so a
        // huge `p` aborted the process on allocation instead of answering.
        let series = Series::new(random_walk(300, 61)).unwrap();
        let run = |p: usize| Valmod::new(32, 34).p(p).threads(2).run(&series).unwrap();
        let (huge, full) = (run(u32::MAX as usize), run(300));
        assert_eq!(huge.valmp.indices, full.valmp.indices);
        assert_eq!(huge.valmp.lengths, full.valmp.lengths);
        for (a, b) in huge.valmp.norm_distances.iter().zip(&full.valmp.norm_distances) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let shape = |out: &ValmodOutput| -> Vec<String> {
            out.per_length.iter().map(|r| format!("{r:?}")).collect()
        };
        assert_eq!(shape(&huge), shape(&full));
    }

    #[test]
    fn threads_do_not_change_the_output() {
        // Random walk plus a flat stretch: the constant rows exercise the
        // key-0 lower-bound path and tied distances under the split.
        let mut values = random_walk(420, 109);
        for v in &mut values[150..210] {
            *v = 2.5;
        }
        let series = Series::new(values).unwrap();
        let ps = ProfiledSeries::new(&series);
        let runner = Valmod::new(16, 40).p(4);
        let base = runner.run(&series).unwrap();
        let base_frags = runner.run_lengths_on(&ps, 16, 40).unwrap();
        for threads in [2usize, 3, 7, 16, 0] {
            let par = runner.clone().threads(threads).run(&series).unwrap();
            assert_eq!(par.per_length.len(), base.per_length.len());
            for (a, b) in base.per_length.iter().zip(&par.per_length) {
                assert_eq!(a.method, b.method, "threads={threads} l={}", a.l);
                assert_eq!(
                    a.motif.map(|m| (m.a, m.b, m.dist.to_bits())),
                    b.motif.map(|m| (m.a, m.b, m.dist.to_bits())),
                    "threads={threads} l={}",
                    a.l
                );
            }
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&base.valmp.norm_distances), bits(&par.valmp.norm_distances));
            assert_eq!(base.valmp.indices, par.valmp.indices, "threads={threads}");
            assert_eq!(base.valmp.lengths, par.valmp.lengths, "threads={threads}");
            let frags = runner.clone().threads(threads).run_lengths_on(&ps, 16, 40).unwrap();
            assert_fragments_bit_identical(&frags, &base_frags, &format!("threads={threads}"));
        }
    }

    #[test]
    fn single_length_range_degenerates_to_stomp() {
        let series = Series::new(random_walk(200, 11)).unwrap();
        let out = Valmod::new(20, 20).run(&series).unwrap();
        assert_eq!(out.per_length.len(), 1);
        assert_eq!(out.per_length[0].method, LengthMethod::FullProfile);
        let ps = ProfiledSeries::new(&series);
        let oracle = stomp(&ps, 20, ExclusionPolicy::HALF).unwrap();
        let (_, _, d) = oracle.motif_pair().unwrap();
        assert!((out.per_length[0].motif.unwrap().dist - d).abs() < 1e-9);
    }

    #[test]
    fn composing_one_segment_is_bit_identical_to_a_full_run() {
        let series = Series::new(random_walk(350, 113)).unwrap();
        let ps = ProfiledSeries::new(&series);
        let runner = Valmod::new(16, 30).p(4);
        let full = runner.run_on(&ps).unwrap();
        let fragments = runner.run_lengths_on(&ps, 16, 30).unwrap();
        assert_eq!(fragments.len(), 15);
        assert_eq!(fragments[0].method, LengthMethod::FullProfile);
        let composed = compose_output(fragments.iter()).unwrap();
        assert_eq!(composed.per_length.len(), full.per_length.len());
        for (a, b) in full.per_length.iter().zip(&composed.per_length) {
            assert_eq!(a.l, b.l);
            assert_eq!(a.method, b.method, "l={}", a.l);
            assert_eq!(a.motif.map(|m| m.dist.to_bits()), b.motif.map(|m| m.dist.to_bits()));
        }
        for (x, y) in full.valmp.norm_distances.iter().zip(&composed.valmp.norm_distances) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        for (x, y) in full.valmp.indices.iter().zip(&composed.valmp.indices) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn run_lengths_on_ignores_the_builders_own_range() {
        // The builder's [l_min, l_max] is irrelevant to the segment entry
        // point; only p / policy / threads carry over.
        let series = Series::new(random_walk(300, 117)).unwrap();
        let ps = ProfiledSeries::new(&series);
        let a = Valmod::new(8, 64).p(4).run_lengths_on(&ps, 20, 24).unwrap();
        let b = Valmod::new(20, 24).p(4).run_lengths_on(&ps, 20, 24).unwrap();
        assert_eq!(a.len(), 5);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.l, y.l);
            assert_eq!(
                x.mp.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                y.mp.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
            assert_eq!(x.ip, y.ip);
        }
    }

    #[test]
    fn segments_are_anchor_pure_functions() {
        // A fragment depends on its anchor and length only, never on how far
        // the segment ran: [20, 24] and [20, 30] agree on lengths 20..=24.
        let series = Series::new(random_walk(280, 119)).unwrap();
        let ps = ProfiledSeries::new(&series);
        let runner = Valmod::new(16, 32).p(4);
        let short = runner.run_lengths_on(&ps, 20, 24).unwrap();
        let long = runner.run_lengths_on(&ps, 20, 30).unwrap();
        for (s, l) in short.iter().zip(&long) {
            assert_eq!(s.l, l.l);
            assert_eq!(
                s.mp.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                l.mp.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
            assert_eq!(s.ip, l.ip);
        }
    }

    #[test]
    fn compose_rejects_gaps_and_emptiness() {
        let series = Series::new(random_walk(200, 123)).unwrap();
        let ps = ProfiledSeries::new(&series);
        let runner = Valmod::new(16, 20).p(4);
        let frags = runner.run_lengths_on(&ps, 16, 20).unwrap();
        assert!(compose_output(std::iter::empty()).is_err());
        let gappy: Vec<&LengthProfile> = vec![&frags[0], &frags[2]];
        assert!(compose_output(gappy).is_err());
    }

    #[test]
    fn recorder_observes_fallbacks_and_row_accounting() {
        use valmod_obs::Registry;
        // Same construction as `row_accounting_is_consistent_for_every_method`:
        // deterministically reaches the fallback branch.
        let mut values = random_walk(600, 1);
        values.extend_from_slice(&valmod_data::generators::sine_mixture(
            200,
            &[(0.1, 3.0)],
            0.4,
            2,
        ));
        let series = Series::new(values).unwrap();
        let registry = Registry::new();
        let out = Valmod::new(16, 48)
            .p(3)
            .recorder(SharedRecorder::from(registry.clone()))
            .run(&series)
            .unwrap();
        let snap = registry.snapshot();
        let fallbacks =
            out.per_length.iter().filter(|r| r.method == LengthMethod::Fallback).count() as u64;
        assert!(fallbacks > 0, "construction no longer reaches the fallback branch");
        assert_eq!(snap.counter("core.lb.fallback"), Some(fallbacks));
        // Every fallback recomputes the full profile, plus the ℓ_min anchor.
        assert_eq!(snap.counter("core.mp.full_profiles"), Some(fallbacks + 1));
        let valid: u64 = out.per_length.iter().skip(1).map(|r| r.valid_rows as u64).sum();
        assert_eq!(snap.counter("core.lb.valid_rows"), Some(valid));
        let refined: u64 = out.per_length.iter().map(|r| r.recomputed_rows as u64).sum();
        assert_eq!(snap.counter("core.lb.refined_rows").unwrap_or(0), refined);
        // The whole run was timed once, every advance step once.
        assert_eq!(snap.histogram("core.valmod.run_us").unwrap().count, 1);
        assert_eq!(snap.histogram("core.submp.advance_us").unwrap().count, 48 - 16);
    }

    fn assert_fragments_bit_identical(a: &[LengthProfile], b: &[LengthProfile], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: fragment count");
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.l, y.l, "{what}");
            assert_eq!(x.method, y.method, "{what} l={}", x.l);
            assert_eq!(
                x.mp.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                y.mp.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{what} l={}",
                x.l
            );
            assert_eq!(x.ip, y.ip, "{what} l={}", x.l);
            assert_eq!(
                x.motif.map(|m| (m.a, m.b, m.dist.to_bits())),
                y.motif.map(|m| (m.a, m.b, m.dist.to_bits())),
                "{what} l={}",
                x.l
            );
            assert_eq!(
                (x.known_entries, x.valid_rows, x.nonvalid_rows, x.recomputed_rows),
                (y.known_entries, y.valid_rows, y.nonvalid_rows, y.recomputed_rows),
                "{what} l={}",
                x.l
            );
        }
    }

    /// Fallback-rich construction shared by the replay tests.
    fn fallback_rich_series(n: usize) -> Vec<f64> {
        let mut values = random_walk(n - 200, 1);
        values.extend_from_slice(&valmod_data::generators::sine_mixture(
            200,
            &[(0.1, 3.0)],
            0.4,
            2,
        ));
        values
    }

    #[test]
    fn capturing_matches_run_lengths_and_replays_bit_identically() {
        let values = fallback_rich_series(700);
        let ps = ProfiledSeries::from_values(&values).unwrap();
        let runner = Valmod::new(1, 2).p(3); // own range ignored
        let plain = runner.run_lengths_on(&ps, 16, 44).unwrap();
        let (captured, seg) = runner.run_lengths_capturing(&ps, 16, 44).unwrap();
        assert_fragments_bit_identical(&captured, &plain, "capture pass");
        let seg = seg.expect("a u32-sized series must capture");
        assert_eq!(seg.anchor(), 16);
        assert_eq!(seg.n(), 700);
        assert!(seg.heap_bytes() > 0);
        assert!(!seg.was_extended(), "a fresh capture is not yet extended");
        // Replay to the same hi, a smaller hi, and a larger hi — all
        // bit-identical to fresh runs (fragments are anchor-pure).
        for hi in [44usize, 20, 16, 52] {
            let replayed = seg.replay(&ps, hi, &SharedRecorder::noop()).unwrap();
            let fresh = runner.run_lengths_on(&ps, 16, hi).unwrap();
            assert_fragments_bit_identical(&replayed, &fresh, &format!("replay hi={hi}"));
        }
    }

    /// Packing must be invisible: every rebuilt [`PartialProfile`] equals
    /// the kernel's own, field by field and entry by entry in heap order.
    /// Returns the kernel's partials for shape checks.
    fn assert_packed_round_trip(
        values: &[f64],
        l: usize,
        p: usize,
        what: &str,
    ) -> Vec<PartialProfile> {
        let ps = ProfiledSeries::from_values(values).unwrap();
        let (kernel, _) = compute_matrix_profile_capture_with_ws(
            &ps,
            l,
            p,
            ExclusionPolicy::HALF,
            1,
            &SharedRecorder::noop(),
            &mut Workspace::new(),
        )
        .unwrap();
        // A two-length segment: a single-length one keeps no `listDP`.
        let (_, seg) = Valmod::new(l, l).p(p).run_lengths_capturing(&ps, l, l + 1).unwrap();
        let seg = seg.expect("a u32-sized series must capture");
        let rebuilt = seg.partials.as_ref().expect("a two-length segment packs").unpack(&ps);
        assert_eq!(seg.profile.mp, kernel.profile.mp, "{what}: anchor profile");
        assert_eq!(seg.profile.ip, kernel.profile.ip, "{what}: anchor indices");
        assert_eq!(rebuilt.len(), kernel.partials.len(), "{what}: rows");
        for (a, b) in rebuilt.iter().zip(&kernel.partials) {
            let row = b.owner;
            assert_eq!(
                (a.owner, a.anchor_l, a.current_l, a.capacity()),
                (b.owner, b.anchor_l, b.current_l, b.capacity()),
                "{what}: row {row} header"
            );
            assert_eq!(a.anchor_sigma.to_bits(), b.anchor_sigma.to_bits(), "{what}: row {row} σ");
            let bits = |p: &PartialProfile| -> Vec<(usize, u64, u64)> {
                p.entries()
                    .iter()
                    .map(|e| (e.neighbor(), e.qt().to_bits(), e.lb_key().to_bits()))
                    .collect()
            };
            assert_eq!(bits(a), bits(b), "{what}: row {row} entries in heap order");
        }
        let entries: usize = kernel.partials.iter().map(PartialProfile::len).sum();
        let ndp = kernel.profile.len();
        assert!(
            seg.heap_bytes() <= 12 * entries + 32 * ndp,
            "{what}: {} bytes for {entries} entries over {ndp} rows",
            seg.heap_bytes()
        );
        kernel.partials
    }

    #[test]
    fn packed_partials_round_trip_bit_for_bit_in_heap_order() {
        // A flat stretch: its rows carry key-0 entries and tied distances.
        let mut flat = random_walk(400, 17);
        for v in &mut flat[120..200] {
            *v = 2.5;
        }
        let partials = assert_packed_round_trip(&flat, 16, 6, "flat stretch");
        assert!(
            partials[150].entries().iter().all(|e| e.lb_key() == 0.0),
            "the flat stretch must exercise key-0 rows"
        );
        // Short and exclusion-heavy: no heap fills at the shipped p.
        let partials = assert_packed_round_trip(&random_walk(40, 5), 16, 50, "short series");
        assert!(partials.iter().all(|p| !p.is_full()), "every heap must stay partially filled");
        // Shipped shape: full heaps at p = 50.
        let partials = assert_packed_round_trip(&fallback_rich_series(700), 64, 50, "p=50");
        assert!(partials.iter().any(PartialProfile::is_full));
    }

    #[test]
    fn single_length_states_hold_no_listdp_and_extend_bit_identically() {
        let values = fallback_rich_series(760);
        let base_n = 700;
        let base = ProfiledSeries::from_values(&values[..base_n]).unwrap();
        let grown = ProfiledSeries::with_offset(&values, base.offset()).unwrap();
        let recorder = SharedRecorder::noop();
        let l = 24;
        let cold = Valmod::new(l, l).run_lengths_on(&base, l, l).unwrap();
        let cold_grown = Valmod::new(l, l).run_lengths_on(&grown, l, l).unwrap();
        for (p, threads) in [(1usize, 1usize), (8, 2), (50, 1), (50, 2)] {
            let what = format!("p={p} threads={threads}");
            let runner = Valmod::new(1, 2).p(p).threads(threads);
            let (frags, seg) = runner.run_lengths_capturing(&base, l, l).unwrap();
            let mut seg = seg.expect("a u32-sized series must capture");
            assert_fragments_bit_identical(&frags, &cold, &what);
            assert!(seg.partials.is_none(), "{what}: a single length keeps no listDP");
            let (ndp, radius) = (base.num_subsequences(l), ExclusionPolicy::HALF.radius(l));
            assert_eq!(seg.heap_bytes(), 24 * ndp - 8 * radius, "{what}: profile and tail");
            let replayed = seg.replay(&base, l, &recorder).unwrap();
            assert_fragments_bit_identical(&replayed, &cold, &format!("{what}: replay"));
            assert!(seg.replay(&base, l + 1, &recorder).is_err(), "{what}: past the anchor");
            seg.extend(&grown, &recorder).unwrap();
            assert!(seg.was_extended());
            assert_eq!(seg.n(), values.len());
            let replayed = seg.replay(&grown, l, &recorder).unwrap();
            assert_fragments_bit_identical(&replayed, &cold_grown, &format!("{what}: extended"));
        }
    }

    #[test]
    fn multi_threaded_capture_matches_one_thread() {
        // Capture at two threads, then replay and extend: every fragment must
        // equal the one-thread segment's, bit for bit, including fallbacks.
        let values = fallback_rich_series(760);
        let base_n = 700;
        let base = ProfiledSeries::from_values(&values[..base_n]).unwrap();
        let grown = ProfiledSeries::with_offset(&values, base.offset()).unwrap();
        let recorder = SharedRecorder::noop();
        let capture = |threads: usize| {
            let runner = Valmod::new(1, 2).p(3).threads(threads);
            let (frags, seg) = runner.run_lengths_capturing(&base, 16, 44).unwrap();
            (frags, seg.expect("a u32-sized series must capture"))
        };
        let (one_frags, mut one) = capture(1);
        let (two_frags, mut two) = capture(2);
        assert_fragments_bit_identical(&two_frags, &one_frags, "capture pass");
        let (one_replay, two_replay) =
            (one.replay(&base, 44, &recorder).unwrap(), two.replay(&base, 44, &recorder).unwrap());
        assert_fragments_bit_identical(&two_replay, &one_replay, "replay");
        one.extend(&grown, &recorder).unwrap();
        two.extend(&grown, &recorder).unwrap();
        let one_replay = one.replay(&grown, 44, &recorder).unwrap();
        let two_replay = two.replay(&grown, 44, &recorder).unwrap();
        assert_fragments_bit_identical(&two_replay, &one_replay, "extend + replay");
        assert!(
            two_replay.iter().any(|lp| lp.method == LengthMethod::Fallback),
            "construction no longer reaches the fallback branch"
        );
    }

    #[test]
    fn extended_segment_replays_bit_identically_to_cold() {
        // The tentpole property: capture on a prefix, append in randomized
        // batches, extend the segment, and every replay must equal a cold
        // same-history run (pinned offset) bit for bit — including lengths
        // resolved through the fallback branch.
        let values = fallback_rich_series(760);
        let schedule = [7usize, 32, 1, 40];
        let base_n = 760 - schedule.iter().sum::<usize>();
        let base = ProfiledSeries::from_values(&values[..base_n]).unwrap();
        let offset = base.offset();
        let runner = Valmod::new(1, 2).p(3);
        let (_, seg) = runner.run_lengths_capturing(&base, 16, 44).unwrap();
        let mut seg = seg.unwrap();
        let recorder = SharedRecorder::noop();
        let mut n = base_n;
        for &k in &schedule {
            n += k;
            let grown = ProfiledSeries::with_offset(&values[..n], offset).unwrap();
            seg.extend(&grown, &recorder).unwrap();
            assert_eq!(seg.n(), n);
            assert!(seg.was_extended());
            let replayed = seg.replay(&grown, 44, &recorder).unwrap();
            let cold = runner.run_lengths_on(&grown, 16, 44).unwrap();
            assert_fragments_bit_identical(&replayed, &cold, &format!("n={n}"));
        }
        // At least one replayed length must have exercised the fallback for
        // the test to mean anything.
        let replayed = seg
            .replay(&ProfiledSeries::with_offset(&values, offset).unwrap(), 44, &recorder)
            .unwrap();
        assert!(
            replayed.iter().any(|lp| lp.method == LengthMethod::Fallback),
            "construction no longer reaches the fallback branch"
        );
    }

    #[test]
    fn extend_rejects_mismatched_series_and_stays_intact() {
        let values = random_walk(400, 137);
        let base = ProfiledSeries::from_values(&values[..320]).unwrap();
        let runner = Valmod::new(1, 2).p(4);
        let (_, seg) = runner.run_lengths_capturing(&base, 16, 24).unwrap();
        let mut seg = seg.unwrap();
        let recorder = SharedRecorder::noop();
        // Drifted frame (series profiled by its own mean) is refused…
        let drifted = ProfiledSeries::from_values(&values).unwrap();
        assert!(seg.extend(&drifted, &recorder).is_err());
        // …and the state still replays correctly afterwards.
        let replayed = seg.replay(&base, 24, &recorder).unwrap();
        let fresh = runner.run_lengths_on(&base, 16, 24).unwrap();
        assert_fragments_bit_identical(&replayed, &fresh, "post-rejection");
        // Replay on a series the state does not cover is refused.
        let grown = ProfiledSeries::with_offset(&values, base.offset()).unwrap();
        assert!(seg.replay(&grown, 24, &recorder).is_err());
        // Zero-sample extend is a no-op.
        seg.extend(&base, &recorder).unwrap();
        assert_eq!(seg.n(), 320);
        assert!(!seg.was_extended(), "neither a rejection nor a no-op counts as extended");
    }

    #[test]
    fn recorder_does_not_change_results() {
        use valmod_obs::Registry;
        let series = Series::new(random_walk(300, 127)).unwrap();
        let plain = Valmod::new(16, 28).p(4).run(&series).unwrap();
        let recorded = Valmod::new(16, 28)
            .p(4)
            .recorder(SharedRecorder::from(Registry::new()))
            .run(&series)
            .unwrap();
        for (a, b) in plain.per_length.iter().zip(&recorded.per_length) {
            assert_eq!(a.method, b.method, "l={}", a.l);
            assert_eq!(a.motif.map(|m| m.dist.to_bits()), b.motif.map(|m| m.dist.to_bits()));
        }
        for (x, y) in plain.valmp.norm_distances.iter().zip(&recorded.valmp.norm_distances) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}
