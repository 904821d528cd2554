//! Differential oracles: independent implementations answering the same
//! question must agree.
//!
//! Two implementations that reach a distance along different arithmetic
//! paths — VALMOD's advanced entries against per-length STOMP, an extended
//! profile against batch STOMP in the series' own frame — are compared with
//! a tolerance, and tie-breaks between equal-distance pairs may pick
//! different indices. A divergence is then only reported when *distances*
//! disagree beyond tolerance or when one side finds a motif the other says
//! does not exist.
//!
//! Where the two sides share their arithmetic, the oracle compares bits:
//! [`check_diagonal_vs_row`] (the diagonal-blocked kernel against the row
//! streamer, across block widths and a parallel run),
//! [`check_parallel_vs_sequential`] (3 threads against 1),
//! [`check_complete_vs_stomp`]'s thread half (2 threads against 1),
//! [`check_extend_vs_batch`]'s pinned half (an extended profile against a
//! cold STOMP in the same frame), [`check_harvest_seeded_vs_cold`] (a
//! seeded harvest against an unseeded one) and [`check_lazy_advance`]
//! (ComputeSubMP's lazy advance against an eager reference that computes
//! every distance).

use valmod_baselines::stomp_profiles;
use valmod_core::harvest::seed_gate;
use valmod_core::lb::lb_scale;
use valmod_core::profile::PartialProfile;
use valmod_core::{
    complete_profiles, compute_matrix_profile, compute_matrix_profile_with_ws,
    compute_matrix_profile_ws, compute_sub_mp_threaded_with_ws, MpWithProfiles, Valmod,
    ValmodConfig,
};
use valmod_data::error::DataError;
use valmod_data::rng::Xoshiro256;
use valmod_mp::diagonal::{stomp_diagonal_parallel_ws, stomp_diagonal_ws};
use valmod_mp::distance::zdist_naive;
use valmod_mp::matrix_profile::MatrixProfile;
use valmod_mp::motif::MotifPair;
use valmod_mp::stomp::{stomp, stomp_row};
use valmod_mp::workspace::{HarvestHint, Workspace};
use valmod_mp::{extend_profile, stomp_with_tail, ExclusionPolicy, ProfiledSeries};
use valmod_obs::{Registry, SharedRecorder};
use valmod_serve::engine::{EngineConfig, QueryEngine, QueryKind, QuerySpec};
use valmod_serve::Value;

use crate::generators::Case;

/// Absolute+relative tolerance for distance agreement between two exact
/// algorithms (covers accumulation-order rounding).
const DIST_TOL: f64 = 1e-6;

/// One disagreement between an implementation and its oracle.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// The id of the generated case that exposed it.
    pub case_id: u64,
    /// Which oracle pair disagreed.
    pub oracle: &'static str,
    /// Human-readable description of the disagreement.
    pub detail: String,
}

/// The outcome of running every oracle over one case.
#[derive(Debug, Default)]
pub struct CaseOutcome {
    /// All disagreements found (empty = the case passed).
    pub divergences: Vec<Divergence>,
    /// Lower-bound admissibility probes evaluated on this case.
    pub lb_probes: usize,
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= DIST_TOL * (1.0 + a.abs().max(b.abs()))
}

fn diverge(case: &Case, oracle: &'static str, detail: String) -> Divergence {
    Divergence { case_id: case.id, oracle, detail: format!("{}: {detail}", case.label()) }
}

/// Runs the eight differential oracles plus the LB-admissibility invariant.
/// STOMP runs once per length of the case, shared by `valmod-vs-stomp` and
/// `complete-vs-stomp`.
pub fn run_case(case: &Case, lb_probe_budget: usize) -> CaseOutcome {
    let mut out = CaseOutcome::default();
    let ps = match ProfiledSeries::from_values(&case.values) {
        Ok(ps) => ps,
        Err(e) => {
            out.divergences.push(diverge(case, "setup", format!("ProfiledSeries failed: {e}")));
            return out;
        }
    };
    if let Some(d) = check_diagonal_vs_row(case, &ps) {
        out.divergences.push(d);
    }
    match stomp_profiles(&ps, case.l_min, case.l_max, ExclusionPolicy::HALF, 1) {
        Ok(oracle) => {
            out.divergences.extend(check_valmod_vs_stomp(case, &ps, &oracle));
            out.divergences.extend(check_complete_vs_stomp(case, &ps, &oracle));
        }
        Err(e) => {
            out.divergences.push(diverge(case, "valmod-vs-stomp", format!("stomp failed: {e}")))
        }
    }
    if let Some(d) = check_parallel_vs_sequential(case, &ps) {
        out.divergences.push(d);
    }
    if let Some(d) = check_extend_vs_batch(case, &ps) {
        out.divergences.push(d);
    }
    if let Some(d) = check_serve_cached_vs_cold(case) {
        out.divergences.push(d);
    }
    if let Some(d) = check_harvest_seeded_vs_cold(case, &ps) {
        out.divergences.push(d);
    }
    if let Some(d) = check_lazy_advance(case, &ps) {
        out.divergences.push(d);
    }
    let (probes, lb_div) = check_lb_admissibility(case, &ps, lb_probe_budget);
    out.lb_probes = probes;
    out.divergences.extend(lb_div);
    out
}

/// The diagonal-blocked STOMP kernel against the row streamer — *bit-exact*,
/// on `mp` and `ip` both, across degenerate block widths (1 and wider than
/// the series) and a 3-worker parallel run with a reused workspace.
pub fn check_diagonal_vs_row(case: &Case, ps: &ProfiledSeries) -> Option<Divergence> {
    let l = case.l_min;
    let policy = ExclusionPolicy::HALF;
    let row = match stomp_row(ps, l, policy) {
        Ok(p) => p,
        Err(e) => return Some(diverge(case, "diagonal-vs-row", format!("row kernel: {e}"))),
    };
    let bit_identical = |got: &MatrixProfile, what: &str| -> Option<Divergence> {
        if got.len() != row.len() {
            return Some(diverge(
                case,
                "diagonal-vs-row",
                format!("{what}: profile lengths differ: {} vs {}", got.len(), row.len()),
            ));
        }
        for i in 0..row.len() {
            if got.mp[i].to_bits() != row.mp[i].to_bits() || got.ip[i] != row.ip[i] {
                return Some(diverge(
                    case,
                    "diagonal-vs-row",
                    format!(
                        "{what}: row {i} at l={l}: diagonal ({}, {}) vs row ({}, {})",
                        got.mp[i], got.ip[i], row.mp[i], row.ip[i]
                    ),
                ));
            }
        }
        None
    };
    // Block width 1 (pure diagonal walk), small widths that split the
    // trapezoids mid-series (9 also leaves a partial trailing lane chunk),
    // and one wider than any case (single block).
    for block in [1usize, 7, 9, 1 << 20] {
        let mut ws = Workspace::with_block(block);
        let diag = match stomp_diagonal_ws(ps, l, policy, &mut ws) {
            Ok(p) => p,
            Err(e) => return Some(diverge(case, "diagonal-vs-row", format!("block={block}: {e}"))),
        };
        if let Some(d) = bit_identical(&diag, &format!("block={block}")) {
            return Some(d);
        }
        // Reuse the same workspace at another length: cached plans and
        // recycled buffers must not leak state between calls.
        if case.l_max > l {
            let reused = match stomp_diagonal_ws(ps, case.l_max, policy, &mut ws) {
                Ok(p) => p,
                Err(e) => {
                    return Some(diverge(case, "diagonal-vs-row", format!("reuse: {e}")));
                }
            };
            let fresh = match stomp_row(ps, case.l_max, policy) {
                Ok(p) => p,
                Err(e) => {
                    return Some(diverge(case, "diagonal-vs-row", format!("reuse row: {e}")));
                }
            };
            for i in 0..fresh.len() {
                if reused.mp[i].to_bits() != fresh.mp[i].to_bits() || reused.ip[i] != fresh.ip[i] {
                    return Some(diverge(
                        case,
                        "diagonal-vs-row",
                        format!("reused workspace diverges at l={} row {i}", case.l_max),
                    ));
                }
            }
        }
    }
    let mut ws = Workspace::new();
    let par = match stomp_diagonal_parallel_ws(ps, l, policy, 3, &mut ws) {
        Ok(p) => p,
        Err(e) => return Some(diverge(case, "diagonal-vs-row", format!("parallel: {e}"))),
    };
    bit_identical(&par, "parallel threads=3")
}

/// VALMOD against independent STOMP-per-length: the paper's Problem 1 answer
/// must match the quadratic baseline (`oracle`, one STOMP profile per length
/// of the case) at every length.
pub fn check_valmod_vs_stomp(
    case: &Case,
    ps: &ProfiledSeries,
    oracle: &[MatrixProfile],
) -> Option<Divergence> {
    let config = ValmodConfig::new(case.l_min, case.l_max).with_p(case.p);
    let valmod = match Valmod::from_config(config).run_on(ps) {
        Ok(out) => out,
        Err(e) => return Some(diverge(case, "valmod-vs-stomp", format!("valmod failed: {e}"))),
    };
    for (report, stomp) in valmod.per_length.iter().zip(oracle) {
        let expect = stomp.motif_pair().map(|(a, b, d)| MotifPair::new(a, b, stomp.l, d));
        match (&report.motif, &expect) {
            (Some(got), Some(want)) if !close(got.dist, want.dist) => {
                return Some(diverge(
                    case,
                    "valmod-vs-stomp",
                    format!("l={}: valmod dist {} vs stomp {}", report.l, got.dist, want.dist),
                ));
            }
            (Some(_), Some(_)) | (None, None) => {}
            (got, want) => {
                return Some(diverge(
                    case,
                    "valmod-vs-stomp",
                    format!("l={}: presence mismatch valmod={got:?} stomp={want:?}", report.l),
                ));
            }
        }
    }
    None
}

/// The complete per-length profiles ([`complete_profiles()`]) against STOMP:
/// every row of every length within tolerance of the `oracle` profile (a
/// row with no valid pair must be `+∞` on both sides; neighbours may differ
/// on ties), and the whole output — `mp` and `ip` bits and each length's
/// method — equal at 2 threads and at 1.
pub fn check_complete_vs_stomp(
    case: &Case,
    ps: &ProfiledSeries,
    oracle: &[MatrixProfile],
) -> Option<Divergence> {
    const ORACLE: &str = "complete-vs-stomp";
    let run = |threads: usize| {
        let config = ValmodConfig::new(case.l_min, case.l_max).with_p(case.p).with_threads(threads);
        complete_profiles(ps, &config)
            .map_err(|e| diverge(case, ORACLE, format!("threads={threads}: {e}")))
    };
    let (one, two) = match (run(1), run(2)) {
        (Ok(one), Ok(two)) => (one, two),
        (Err(d), _) | (_, Err(d)) => return Some(d),
    };
    if one.len() != oracle.len() {
        return Some(diverge(
            case,
            ORACLE,
            format!("{} lengths vs stomp's {}", one.len(), oracle.len()),
        ));
    }
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    // `close` accepts `+∞` against any finite value, so a missing pair
    // must be missing on both sides.
    let agree = |a: f64, b: f64| {
        if a.is_infinite() || b.is_infinite() {
            a == b
        } else {
            close(a, b)
        }
    };
    for ((got, par), want) in one.iter().zip(&two).zip(oracle) {
        if got.method != par.method || bits(&got.mp) != bits(&par.mp) || got.ip != par.ip {
            return Some(diverge(case, ORACLE, format!("l={}: threads 2 differ from 1", got.l)));
        }
        if got.mp.len() != want.mp.len() {
            return Some(diverge(
                case,
                ORACLE,
                format!("l={}: {} rows vs stomp's {}", got.l, got.mp.len(), want.mp.len()),
            ));
        }
        if let Some(j) = (0..got.mp.len()).find(|&j| !agree(got.mp[j], want.mp[j])) {
            return Some(diverge(
                case,
                ORACLE,
                format!("l={} row {j}: complete {} vs stomp {}", got.l, got.mp[j], want.mp[j]),
            ));
        }
    }
    None
}

/// Thread count against one thread, bit for bit. The harvesting pass at
/// `ℓ_min` must give the same `mp`/`ip` bits and every row the same retained
/// entries at 3 threads as at 1 (`same_harvest`); Valmod's per-length
/// `mp`/`ip` over the case's range must match to the bit; and on every
/// fallback length, a 3-thread pass seeded from the hint `ComputeSubMP`
/// leaves must match the 1-thread pass seeded from the same hint.
pub fn check_parallel_vs_sequential(case: &Case, ps: &ProfiledSeries) -> Option<Divergence> {
    const ORACLE: &str = "parallel-vs-sequential";
    const THREADS: usize = 3;
    let (p, policy, noop) = (case.p, ExclusionPolicy::HALF, SharedRecorder::noop());
    let pass = |l: usize, threads: usize, hint: Option<HarvestHint>| {
        let mut ws = Workspace::new();
        if let Some(hint) = hint {
            ws.set_harvest_hint(hint);
        }
        compute_matrix_profile_with_ws(ps, l, p, policy, threads, &noop, &mut ws)
            .map_err(|e| diverge(case, ORACLE, format!("l={l} threads={threads}: {e}")))
    };
    let compare = |l: usize, hint: Option<HarvestHint>| -> Result<MpWithProfiles, Divergence> {
        let one = pass(l, 1, hint.clone())?;
        let many = pass(l, THREADS, hint)?;
        match same_harvest(&many, &one) {
            Some(detail) => Err(diverge(case, ORACLE, format!("l={l}: {detail}"))),
            None => Ok(one),
        }
    };
    let mut state = match compare(case.l_min, None) {
        Ok(s) => s,
        Err(d) => return Some(d),
    };

    let run = |threads: usize| {
        Valmod::new(case.l_min, case.l_max)
            .p(p)
            .threads(threads)
            .run_lengths_on(ps, case.l_min, case.l_max)
            .map_err(|e| diverge(case, ORACLE, format!("valmod threads={threads}: {e}")))
    };
    let (one, many) = match (run(1), run(THREADS)) {
        (Ok(one), Ok(many)) => (one, many),
        (Err(d), _) | (_, Err(d)) => return Some(d),
    };
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for (a, b) in one.iter().zip(&many) {
        if a.method != b.method || bits(&a.mp) != bits(&b.mp) || a.ip != b.ip {
            return Some(diverge(case, ORACLE, format!("valmod l={}: profiles differ", a.l)));
        }
    }

    let mut ws = Workspace::new();
    for l in (case.l_min + 1)..=case.l_max {
        let res =
            compute_sub_mp_threaded_with_ws(ps, &mut state.partials, l, policy, 1, &noop, &mut ws);
        if res.found_motif {
            continue;
        }
        let Some(hint) = ws.take_harvest_hint() else {
            return Some(diverge(case, ORACLE, format!("l={l}: fallback left no hint")));
        };
        state = match compare(l, Some(hint)) {
            Ok(s) => s,
            Err(d) => return Some(d),
        };
    }
    None
}

/// A profile extended from a prefix against batch recomputes: seeding
/// `stomp_with_tail` with the first half of the case and growing it by one
/// sample, then by the rest, with `extend_profile` in the seed's pinned
/// frame must land on the cold STOMP of the whole series in that frame bit
/// for bit, and on the batch profile in the series' own frame (`ps`)
/// within tolerance.
pub fn check_extend_vs_batch(case: &Case, ps: &ProfiledSeries) -> Option<Divergence> {
    const ORACLE: &str = "extend-vs-batch";
    let l = case.l_min;
    let n = case.values.len();
    let seed_len = (n / 2).clamp(l + 1, n);
    let fail = |what: &str, e: DataError| Some(diverge(case, ORACLE, format!("{what}: {e}")));
    let base = match ProfiledSeries::from_values(&case.values[..seed_len]) {
        Ok(b) => b,
        Err(e) => return fail("seed", e),
    };
    let (mut extended, mut state) = match stomp_with_tail(&base, l, ExclusionPolicy::HALF) {
        Ok(seeded) => seeded,
        Err(e) => return fail("seed", e),
    };
    let mut pinned = base;
    for end in [(seed_len + 1).min(n), n] {
        pinned = match ProfiledSeries::with_offset(&case.values[..end], pinned.offset()) {
            Ok(p) => p,
            Err(e) => return fail("pinned view", e),
        };
        if let Err(e) = extend_profile(&mut extended, &mut state, &pinned) {
            return fail("extend", e);
        }
    }
    let cold = match stomp(&pinned, l, ExclusionPolicy::HALF) {
        Ok(p) => p,
        Err(e) => return fail("pinned cold", e),
    };
    let batch = match stomp(ps, l, ExclusionPolicy::HALF) {
        Ok(p) => p,
        Err(e) => return fail("batch", e),
    };
    if extended.len() != cold.len() || extended.len() != batch.len() {
        return Some(diverge(
            case,
            ORACLE,
            format!(
                "profile lengths differ: extended {} vs pinned cold {} vs batch {}",
                extended.len(),
                cold.len(),
                batch.len()
            ),
        ));
    }
    for i in 0..batch.len() {
        let (x, c, b) = (extended.mp[i], cold.mp[i], batch.mp[i]);
        if x.to_bits() != c.to_bits() || extended.ip[i] != cold.ip[i] {
            return Some(diverge(
                case,
                ORACLE,
                format!(
                    "row {i} at l={l}: extended {x} @ {} vs pinned cold {c} @ {}",
                    extended.ip[i], cold.ip[i]
                ),
            ));
        }
        let agree = (x.is_finite() == b.is_finite()) && (!x.is_finite() || close(x, b));
        if !agree {
            return Some(diverge(
                case,
                ORACLE,
                format!("row {i} at l={l}: extended {x} vs batch {b}"),
            ));
        }
    }
    None
}

/// The payload body of a response, with the per-run `compute_ms` timing
/// stripped by construction (only `body` is compared).
fn body_of(payload: &Value) -> Option<&Value> {
    payload.get("body")
}

/// A cache hit must return the same payload as the miss that filled it, and
/// a cold query on a fresh engine must agree with both.
pub fn check_serve_cached_vs_cold(case: &Case) -> Option<Divergence> {
    let spec = |series: &str| QuerySpec {
        series: series.to_string(),
        kind: QueryKind::Motifs { top: 3 },
        l_min: case.l_min,
        l_max: case.l_max,
        p: case.p,
        policy: ExclusionPolicy::HALF,
        deadline: None,
    };
    let config = EngineConfig::builder().workers(1).build().expect("static engine config");

    let run_pair = |name: &str| -> Result<(Value, Value, bool, bool), String> {
        let engine = QueryEngine::new(config.clone());
        let result = (|| {
            engine
                .load(name, case.values.clone(), &[], ExclusionPolicy::HALF, false)
                .map_err(|e| format!("load: {e}"))?;
            let cold = engine.query(spec(name)).map_err(|e| format!("cold query: {e}"))?;
            let warm = engine.query(spec(name)).map_err(|e| format!("warm query: {e}"))?;
            Ok((
                cold.payload.as_ref().clone(),
                warm.payload.as_ref().clone(),
                cold.cached,
                warm.cached,
            ))
        })();
        engine.shutdown();
        engine.join();
        result
    };

    let (cold_a, warm_a, cold_a_cached, warm_a_cached) = match run_pair("s") {
        Ok(x) => x,
        Err(e) => return Some(diverge(case, "serve-cached-vs-cold", e)),
    };
    if cold_a_cached || !warm_a_cached {
        return Some(diverge(
            case,
            "serve-cached-vs-cold",
            format!("cache flags wrong: cold.cached={cold_a_cached} warm.cached={warm_a_cached}"),
        ));
    }
    if body_of(&cold_a) != body_of(&warm_a) {
        return Some(diverge(
            case,
            "serve-cached-vs-cold",
            "cached body differs from the miss that filled it".into(),
        ));
    }
    // An independent engine answering the same query cold must agree too.
    let (cold_b, _, _, _) = match run_pair("s") {
        Ok(x) => x,
        Err(e) => return Some(diverge(case, "serve-cached-vs-cold", e)),
    };
    if body_of(&cold_a) != body_of(&cold_b) {
        return Some(diverge(
            case,
            "serve-cached-vs-cold",
            "cold bodies differ across independent engines".into(),
        ));
    }
    None
}

/// The gated harvest's seed against a cold, unseeded harvest.
///
/// Walks the case's length range the way `Valmod::run` does, on one
/// workspace. On every fallback length (ComputeSubMP could not certify the
/// motif) the workspace holds a [`HarvestHint`]; a full profile seeded from
/// it must retain exactly the entries of an unseeded one — per row, the
/// neighbours and the bits of qt and lb_key as sorted sets — with the
/// same `mp`/`ip` bits. Two adversarial hints follow on the same length:
/// every bound 0, and a random half of the rows at half their true bound.
/// A seeded pass must rerun unseeded exactly when some seeded row's gate
/// sits below its cold `p`-th smallest key, and still match. A case without
/// a fallback length gets the adversarial hints at `ℓ_max`.
pub fn check_harvest_seeded_vs_cold(case: &Case, ps: &ProfiledSeries) -> Option<Divergence> {
    const ORACLE: &str = "harvest-seeded-vs-cold";
    let policy = ExclusionPolicy::HALF;
    let (p, noop) = (case.p, SharedRecorder::noop());
    let mut rng = Xoshiro256::seed_from_u64(0x5eed_ca7e ^ case.id);
    let mut ws = Workspace::new();
    let mut state = match compute_matrix_profile_ws(ps, case.l_min, p, policy, &mut ws) {
        Ok(s) => s,
        Err(e) => return Some(diverge(case, ORACLE, format!("anchor: {e}"))),
    };
    let mut probed = false;
    for l in (case.l_min + 1)..=case.l_max {
        let res =
            compute_sub_mp_threaded_with_ws(ps, &mut state.partials, l, policy, 1, &noop, &mut ws);
        if res.found_motif {
            continue;
        }
        let Some(hint) = ws.take_harvest_hint() else {
            return Some(diverge(case, ORACLE, format!("l={l}: fallback left no hint")));
        };
        let cold = match compute_matrix_profile(ps, l, p, policy) {
            Ok(c) => c,
            Err(e) => return Some(diverge(case, ORACLE, format!("l={l}: cold: {e}"))),
        };
        if let Some(detail) = seeded_matches_cold(ps, &cold, p, "hint", hint, &mut rng) {
            return Some(diverge(case, ORACLE, format!("l={l}: {detail}")));
        }
        state = cold;
        probed = true;
    }
    if probed {
        return None;
    }
    let l = case.l_max;
    let cold = match compute_matrix_profile(ps, l, p, policy) {
        Ok(c) => c,
        Err(e) => return Some(diverge(case, ORACLE, format!("l={l}: cold: {e}"))),
    };
    let unseeded = HarvestHint { l, p, max_dist: vec![f64::INFINITY; cold.partials.len()] };
    seeded_matches_cold(ps, &cold, p, "no hint", unseeded, &mut rng)
        .map(|detail| diverge(case, ORACLE, format!("l={l}: {detail}")))
}

/// Runs seeded passes at `cold`'s length — `hint` itself, then every bound
/// 0, then a random half of the rows at half their `hint` bound (or of the
/// cold root's distance where `hint` is `+∞`) — and compares each with
/// `cold`. Returns the first disagreement.
fn seeded_matches_cold(
    ps: &ProfiledSeries,
    cold: &MpWithProfiles,
    p: usize,
    what: &str,
    hint: HarvestHint,
    rng: &mut Xoshiro256,
) -> Option<String> {
    let l = cold.profile.l;
    let zero = HarvestHint { max_dist: vec![0.0; hint.max_dist.len()], ..hint.clone() };
    let mut half = hint.clone();
    for (d, prof) in half.max_dist.iter_mut().zip(&cold.partials) {
        if rng.next_u64() & 1 == 1 {
            let root = prof.entries().first().map_or(0.0, |e| prof.entry_dist(ps, e));
            *d = if d.is_finite() { *d * 0.5 } else { root * 0.5 };
        }
    }
    for (label, h) in [(what, hint), ("all-zero", zero), ("too-tight half", half)] {
        // The pass holds the top p exactly iff every seeded gate is at or
        // above its row's cold p-th smallest key; otherwise it must rerun.
        let expect_rerun = h.max_dist.iter().zip(&cold.partials).any(|(&d, prof)| {
            let gate = seed_gate(d, l);
            gate.is_finite() && (!prof.is_full() || prof.max_lb_key().is_some_and(|k| k > gate))
        });
        let registry = Registry::new();
        let mut ws = Workspace::new();
        ws.set_harvest_hint(h);
        let seeded = match compute_matrix_profile_with_ws(
            ps,
            l,
            p,
            ExclusionPolicy::HALF,
            1,
            &SharedRecorder::from(registry.clone()),
            &mut ws,
        ) {
            Ok(s) => s,
            Err(e) => return Some(format!("{label}: seeded pass failed: {e}")),
        };
        let reran = registry.snapshot().counter("core.harvest.seed_reruns").unwrap_or(0) > 0;
        if reran != expect_rerun {
            return Some(format!("{label}: reran={reran}, expected {expect_rerun}"));
        }
        if let Some(detail) = same_harvest(&seeded, cold) {
            return Some(format!("{label}: {detail}"));
        }
    }
    None
}

/// Bit-for-bit equality of two harvests: `mp`/`ip`, and each row's retained
/// entries as a sorted set of (neighbour, qt, lb_key) bits (an entry's
/// distance is a function of its `qt`).
fn same_harvest(a: &MpWithProfiles, b: &MpWithProfiles) -> Option<String> {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    if bits(&a.profile.mp) != bits(&b.profile.mp) || a.profile.ip != b.profile.ip {
        return Some("matrix profile differs".into());
    }
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
        if set(pa) != set(pb) {
            return Some(format!("row {} retains different entries", pa.owner));
        }
    }
    (a.partials.len() != b.partials.len()).then(|| "row counts differ".into())
}

/// ComputeSubMP's lazy advance against an eager reference, bit for bit.
/// The walk runs from one anchor with a recorder attached (serve's path).
/// After each advance the reference is rebuilt from every live entry's
/// distance ([`PartialProfile::entry_dist`]), and per length it must agree
/// with the result on:
///
/// * each row's minimum and neighbour (ties to the smaller neighbour);
/// * the `min ≤ maxLB` split into valid and non-valid rows;
/// * on a fallback length, each row's max-distance hint (`+∞` for a row
///   with a dead entry or a short heap).
///
/// Rows the last-chance pass refined are re-anchored at the new length,
/// so only their count is checked. A fallback length re-anchors the walk
/// on a cold pass.
pub fn check_lazy_advance(case: &Case, ps: &ProfiledSeries) -> Option<Divergence> {
    const ORACLE: &str = "lazy-advance";
    let (p, policy) = (case.p, ExclusionPolicy::HALF);
    let recorder = SharedRecorder::from(Registry::new());
    let mut ws = Workspace::new();
    let mut state = match compute_matrix_profile_ws(ps, case.l_min, p, policy, &mut ws) {
        Ok(s) => s,
        Err(e) => return Some(diverge(case, ORACLE, format!("anchor: {e}"))),
    };
    for l in (case.l_min + 1)..=case.l_max {
        let res = compute_sub_mp_threaded_with_ws(
            ps,
            &mut state.partials,
            l,
            policy,
            1,
            &recorder,
            &mut ws,
        );
        if let Some(detail) = eager_mismatch(ps, &state.partials, &res, l) {
            return Some(diverge(case, ORACLE, format!("l={l}: {detail}")));
        }
        let hint = ws.take_harvest_hint();
        if hint.is_some() == res.found_motif {
            let detail = format!("l={l}: found={} but hint={}", res.found_motif, hint.is_some());
            return Some(diverge(case, ORACLE, detail));
        }
        if let Some(hint) = hint {
            let want = state.partials[..res.sub_mp.len()].iter().map(|prof| {
                let all = prof.entries().iter().map(|e| prof.entry_dist(ps, e));
                if prof.is_full() {
                    all.fold(0.0, f64::max)
                } else {
                    f64::INFINITY
                }
            });
            if hint.l != l || !want.map(f64::to_bits).eq(hint.max_dist.iter().map(|d| d.to_bits()))
            {
                return Some(diverge(case, ORACLE, format!("l={l}: fallback hint differs")));
            }
            state = match compute_matrix_profile_ws(ps, l, p, policy, &mut ws) {
                Ok(s) => s,
                Err(e) => return Some(diverge(case, ORACLE, format!("l={l}: fallback: {e}"))),
            };
        }
    }
    None
}

/// The first [`check_lazy_advance`] disagreement between `res` and the
/// eager reference over `partials`, just advanced to `l`.
fn eager_mismatch(
    ps: &ProfiledSeries,
    partials: &[PartialProfile],
    res: &valmod_core::SubMpResult,
    l: usize,
) -> Option<String> {
    let (mut valid, mut refined) = (0, 0);
    for (j, prof) in partials[..res.sub_mp.len()].iter().enumerate() {
        if prof.anchor_l == l {
            refined += 1;
            continue;
        }
        let (mut min, mut ind) = (f64::INFINITY, usize::MAX);
        for e in prof.entries().iter().filter(|e| e.is_live()) {
            let (d, i) = (prof.entry_dist(ps, e), e.neighbor());
            if d < min || (d == min && i < ind) {
                (min, ind) = (d, i);
            }
        }
        let (got, got_ind) = (res.sub_mp[j], res.ip[j]);
        if min <= prof.max_lb_at(ps.std(j, l)) {
            valid += 1;
            if got.to_bits() != min.to_bits() || got_ind != ind {
                return Some(format!("row {j}: ({got}, {got_ind}) vs eager ({min}, {ind})"));
            }
        } else if !got.is_nan() {
            return Some(format!("row {j}: {got} where eager leaves the row non-valid"));
        }
    }
    let want = (valid, res.sub_mp.len() - valid - refined, refined);
    let got = (res.valid_rows, res.nonvalid_rows - res.recomputed_rows, res.recomputed_rows);
    (got != want).then(|| format!("(valid, non-valid, refined) {got:?} vs eager {want:?}"))
}

/// The Eq. 2 invariant: every harvested lower bound, scaled to any longer
/// length, must stay at or below the true z-normalised distance there.
///
/// Probes are subsampled deterministically (by the case id) down to
/// `budget` evaluations so a run's total stays proportional to its case
/// count; returns how many probes actually ran.
pub fn check_lb_admissibility(
    case: &Case,
    ps: &ProfiledSeries,
    budget: usize,
) -> (usize, Vec<Divergence>) {
    let mut divergences = Vec::new();
    let harvested = match compute_matrix_profile(ps, case.l_min, case.p, ExclusionPolicy::HALF) {
        Ok(h) => h,
        Err(e) => {
            divergences.push(diverge(case, "lb-admissibility", format!("anchor: {e}")));
            return (0, divergences);
        }
    };
    let t = ps.centered();
    let n = ps.len();
    let mut rng = Xoshiro256::seed_from_u64(0xad31_5518 ^ case.id);

    // Enumerate candidate (partial, entry, k) probes lazily and sample.
    let mut candidates: Vec<(usize, usize, usize)> = Vec::new();
    for (pi, pp) in harvested.partials.iter().enumerate() {
        for (ei, _) in pp.entries().iter().enumerate() {
            for k in 1..=(case.l_max - case.l_min) {
                candidates.push((pi, ei, k));
            }
        }
    }
    rng.shuffle(&mut candidates);
    candidates.truncate(budget);

    let mut probes = 0usize;
    for (pi, ei, k) in candidates {
        let pp = &harvested.partials[pi];
        let entry = pp.entries()[ei];
        let new_l = pp.anchor_l + k;
        let (a, b) = (pp.owner, entry.neighbor());
        if a + new_l > n || b + new_l > n {
            continue; // the pair does not exist at this length
        }
        let sigma_new = ps.std(a, new_l);
        let lb = lb_scale(entry.lb_base(), pp.anchor_sigma, sigma_new);
        let true_dist = zdist_naive(&t[a..a + new_l], &t[b..b + new_l]);
        probes += 1;
        if !true_dist.is_finite() {
            continue; // excluded/flat pair: no claim to check
        }
        if lb > true_dist + DIST_TOL * (1.0 + true_dist) {
            divergences.push(diverge(
                case,
                "lb-admissibility",
                format!(
                    "owner {a} neighbor {b}: LB {lb} exceeds true distance {true_dist} at l={new_l} (anchor {})",
                    pp.anchor_l
                ),
            ));
            if divergences.len() >= 3 {
                break; // enough evidence for one case
            }
        }
    }
    (probes, divergences)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::generate_case;

    #[test]
    fn clean_cases_produce_no_divergences() {
        // A fast spot check across families; the full sweep lives behind
        // `valmod check`.
        for id in 0..8 {
            let case = generate_case(42, id);
            let out = run_case(&case, 40);
            assert!(out.divergences.is_empty(), "{:?}", out.divergences);
        }
    }

    #[test]
    fn diagonal_oracle_passes_every_family() {
        for id in 0..8 {
            let case = generate_case(7, id);
            let ps = ProfiledSeries::from_values(&case.values).unwrap();
            assert!(check_diagonal_vs_row(&case, &ps).is_none(), "family id {id}");
        }
    }

    #[test]
    fn lazy_advance_oracle_passes_every_family() {
        for seed in [7, 42] {
            for id in 0..16 {
                let case = generate_case(seed, id);
                let ps = ProfiledSeries::from_values(&case.values).unwrap();
                let div = check_lazy_advance(&case, &ps);
                assert!(div.is_none(), "seed {seed} id {id}: {div:?}");
            }
        }
    }

    #[test]
    fn complete_oracle_passes_every_family() {
        for id in 0..8 {
            let case = generate_case(7, id);
            let ps = ProfiledSeries::from_values(&case.values).unwrap();
            let oracle =
                stomp_profiles(&ps, case.l_min, case.l_max, ExclusionPolicy::HALF, 1).unwrap();
            let div = check_complete_vs_stomp(&case, &ps, &oracle);
            assert!(div.is_none(), "family id {id}: {div:?}");
        }
    }

    #[test]
    fn admissibility_probes_are_counted() {
        let case = generate_case(42, 4); // RandomWalk
        let ps = ProfiledSeries::from_values(&case.values).unwrap();
        let (probes, div) = check_lb_admissibility(&case, &ps, 64);
        assert!(div.is_empty(), "{div:?}");
        assert!(probes > 0);
    }

    #[test]
    fn a_poisoned_case_is_reported_not_panicked() {
        // Hand-build an invalid case (NaN sample): the harness must turn it
        // into a reported divergence, never a panic.
        let mut case = generate_case(42, 4);
        case.values[3] = f64::NAN;
        let out = run_case(&case, 10);
        assert!(!out.divergences.is_empty());
        assert_eq!(out.divergences[0].oracle, "setup");
    }

    #[test]
    fn tolerance_comparator_accepts_rounding_but_not_bugs() {
        assert!(close(1.0, 1.0 + 1e-9));
        assert!(close(1e9, 1e9 * (1.0 + 1e-8)));
        assert!(!close(1.0, 1.001));
        assert!(!close(0.0, 0.1));
    }
}
