//! `discover_ecg` and `discover_emg`: in-process VALMOD jobs, one at a
//! time, on one seeded series.
//!
//! The untraced run times [`Valmod::run`] per job. The traced run
//! alternates those jobs with a re-drive of Algorithm 1 through the public
//! layer functions — `ProfiledSeries::new`, `compute_matrix_profile_with_ws`
//! (anchor and fallbacks), `compute_sub_mp_threaded_with_ws`, and
//! `compose_output` (VALMP) — timing each call, and requires the re-drive's
//! output to equal `Valmod::run`'s bit for bit.

use std::time::{Duration, Instant};

use valmod_core::{
    compose_output, compute_matrix_profile_with_ws, compute_sub_mp_threaded_with_ws, LengthMethod,
    LengthProfile, MpWithProfiles, Valmod, ValmodOutput,
};
use valmod_data::datasets::{ecg_like, emg_like};
use valmod_data::series::Series;
use valmod_mp::diagonal::stomp_diagonal_ws;
use valmod_mp::motif::MotifPair;
use valmod_mp::workspace::Workspace;
use valmod_mp::{ExclusionPolicy, ProfiledSeries};
use valmod_obs::SharedRecorder;

use crate::report::{Json, Outcome};
use crate::stats::{beyond, mean, median, percentile, ratio};
use crate::{sys, RunContext};

const POLICY: ExclusionPolicy = ExclusionPolicy::HALF;

/// One discovery workload's inputs.
#[derive(Debug, Clone)]
pub struct Params {
    /// Generator: `"ecg"` or `"emg"`.
    pub dataset: &'static str,
    /// Series length.
    pub n: usize,
    /// Smallest motif length.
    pub l_min: usize,
    /// Largest motif length (inclusive).
    pub l_max: usize,
    /// Lower-bound entries kept per profile (the paper's `p`).
    pub p: usize,
    /// Generator seed.
    pub seed: u64,
}

impl Params {
    /// `discover_ecg`: the bound certifies almost every length, so
    /// ComputeSubMP does most of the work.
    pub fn ecg(seed: u64) -> Params {
        Params { dataset: "ecg", n: 2048, l_min: 64, l_max: 192, p: 50, seed }
    }

    /// `discover_emg`: the bound certifies no length, so every length falls
    /// back to a full profile.
    pub fn emg(seed: u64) -> Params {
        Params { dataset: "emg", n: 2048, l_min: 64, l_max: 80, p: 50, seed }
    }

    /// Generates the input series.
    pub fn series(&self) -> Series {
        match self.dataset {
            "ecg" => ecg_like(self.n, self.seed),
            "emg" => emg_like(self.n, self.seed),
            other => panic!("unknown dataset {other}"),
        }
    }

    /// One `Valmod::run` job.
    pub fn job(&self, series: &Series) -> Result<ValmodOutput, String> {
        Valmod::new(self.l_min, self.l_max).p(self.p).run(series).map_err(|e| e.to_string())
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("dataset", Json::from(self.dataset)),
            ("n", self.n.into()),
            ("l_min", self.l_min.into()),
            ("l_max", self.l_max.into()),
            ("p", self.p.into()),
            ("threads", 1usize.into()),
        ])
    }
}

/// Time spent in each layer during one re-driven job.
#[derive(Debug, Clone, Default)]
pub struct LayerTimes {
    /// `ProfiledSeries::new` (rolling statistics).
    pub profile: Duration,
    /// Full profiles with LB harvest: the anchor plus every fallback.
    pub compute_mp: Duration,
    /// Lengths of the full-profile calls, in call order.
    pub compute_mp_lengths: Vec<usize>,
    /// ComputeSubMP advances.
    pub sub_mp: Duration,
    /// Number of ComputeSubMP calls.
    pub sub_mp_calls: usize,
    /// VALMP composition.
    pub valmp: Duration,
    /// The whole job.
    pub wall: Duration,
}

impl LayerTimes {
    /// Wall time the layer timers do not cover.
    pub fn untraced(&self) -> Duration {
        self.wall.saturating_sub(self.profile + self.compute_mp + self.sub_mp + self.valmp)
    }
}

/// Re-drives Algorithm 1 for `params` over `series` through the public
/// layer functions, timing each call. The output must equal
/// [`Params::job`]'s bit for bit ([`same_output`]).
pub fn redrive(params: &Params, series: &Series) -> Result<(ValmodOutput, LayerTimes), String> {
    let err = |e: valmod_data::error::ValmodError| e.to_string();
    let (l_min, p) = (params.l_min, params.p);
    let mut times = LayerTimes::default();
    let start = Instant::now();

    let t = Instant::now();
    let ps = ProfiledSeries::new(series);
    times.profile = t.elapsed();

    let recorder = SharedRecorder::noop();
    let mut ws = Workspace::new();
    let full_profile = |l: usize, ws: &mut Workspace, times: &mut LayerTimes| {
        let t = Instant::now();
        let state = compute_matrix_profile_with_ws(&ps, l, p, POLICY, 1, &recorder, ws);
        times.compute_mp += t.elapsed();
        times.compute_mp_lengths.push(l);
        state.map_err(err)
    };
    let mut state: MpWithProfiles = full_profile(l_min, &mut ws, &mut times)?;
    let mut fragments = vec![anchor_profile(&state, l_min)];
    for l in (l_min + 1)..=params.l_max {
        let t = Instant::now();
        let res = compute_sub_mp_threaded_with_ws(
            &ps,
            &mut state.partials,
            l,
            POLICY,
            1,
            &recorder,
            &mut ws,
        );
        times.sub_mp += t.elapsed();
        times.sub_mp_calls += 1;
        let lp = if res.found_motif {
            let method = if res.recomputed_rows > 0 {
                LengthMethod::SubMpRefined
            } else {
                LengthMethod::SubMp
            };
            let known = res.known_entries();
            LengthProfile {
                l,
                motif: best_finite(&res.sub_mp, &res.ip, l),
                method,
                known_entries: known,
                valid_rows: res.valid_rows,
                nonvalid_rows: res.nonvalid_rows,
                recomputed_rows: res.recomputed_rows,
                mp: res.sub_mp,
                ip: res.ip,
            }
        } else {
            state = full_profile(l, &mut ws, &mut times)?;
            LengthProfile {
                l,
                motif: best_finite(&state.profile.mp, &state.profile.ip, l),
                method: LengthMethod::Fallback,
                known_entries: state.profile.len(),
                valid_rows: res.valid_rows,
                nonvalid_rows: res.nonvalid_rows,
                recomputed_rows: 0,
                mp: state.profile.mp.clone(),
                ip: state.profile.ip.clone(),
            }
        };
        fragments.push(lp);
    }

    let t = Instant::now();
    let output = compose_output(fragments.iter()).map_err(err)?;
    times.valmp = t.elapsed();
    times.wall = start.elapsed();
    Ok((output, times))
}

fn anchor_profile(state: &MpWithProfiles, l: usize) -> LengthProfile {
    LengthProfile {
        l,
        mp: state.profile.mp.clone(),
        ip: state.profile.ip.clone(),
        method: LengthMethod::FullProfile,
        motif: state.profile.motif_pair().map(|(a, b, d)| MotifPair::new(a, b, l, d)),
        known_entries: state.profile.len(),
        valid_rows: state.profile.len(),
        nonvalid_rows: 0,
        recomputed_rows: 0,
    }
}

/// The first strict minimum over finite entries, as `Valmod::run` picks it.
fn best_finite(mp: &[f64], ip: &[usize], l: usize) -> Option<MotifPair> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &d) in mp.iter().enumerate() {
        if d.is_finite() && best.is_none_or(|(_, bd)| d < bd) {
            best = Some((i, d));
        }
    }
    best.map(|(i, d)| MotifPair::new(i, ip[i], l, d))
}

/// Bit-for-bit equality of two outputs: every per-length report (method,
/// motif pair and distance bits, row accounting) and every VALMP slot.
pub fn same_output(a: &ValmodOutput, b: &ValmodOutput) -> bool {
    let motif_bits = |m: Option<MotifPair>| m.map(|m| (m.a, m.b, m.l, m.dist.to_bits()));
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    a.per_length.len() == b.per_length.len()
        && a.per_length.iter().zip(&b.per_length).all(|(x, y)| {
            x.l == y.l
                && x.method == y.method
                && motif_bits(x.motif) == motif_bits(y.motif)
                && x.known_entries == y.known_entries
                && x.valid_rows == y.valid_rows
                && x.nonvalid_rows == y.nonvalid_rows
                && x.recomputed_rows == y.recomputed_rows
        })
        && bits(&a.valmp.norm_distances) == bits(&b.valmp.norm_distances)
        && bits(&a.valmp.distances) == bits(&b.valmp.distances)
        && a.valmp.lengths == b.valmp.lengths
        && a.valmp.indices == b.valmp.indices
}

/// Z-normalised Euclidean distance computed directly from the samples.
pub fn znorm_dist(x: &[f64], y: &[f64]) -> f64 {
    let stats = |v: &[f64]| {
        let mu = v.iter().sum::<f64>() / v.len() as f64;
        let var = v.iter().map(|a| (a - mu) * (a - mu)).sum::<f64>() / v.len() as f64;
        (mu, var.sqrt())
    };
    let ((mx, sx), (my, sy)) = (stats(x), stats(y));
    x.iter()
        .zip(y)
        .map(|(a, b)| {
            let za = if sx > 0.0 { (a - mx) / sx } else { 0.0 };
            let zb = if sy > 0.0 { (b - my) / sy } else { 0.0 };
            (za - zb) * (za - zb)
        })
        .sum::<f64>()
        .sqrt()
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 * b.abs().max(1.0)
}

/// STOMP-per-length answers (`valmod-baselines`) at ℓ_min, the middle
/// length and ℓ_max.
pub fn stomp_reference(
    params: &Params,
    series: &Series,
) -> Result<Vec<(usize, Option<f64>)>, String> {
    let ps = ProfiledSeries::new(series);
    let mid = (params.l_min + params.l_max) / 2;
    [params.l_min, mid, params.l_max]
        .into_iter()
        .map(|l| {
            let found = valmod_baselines::stomp_range::stomp_range(&ps, l, l, POLICY, 1)
                .map_err(|e| e.to_string())?;
            Ok((l, found.first().copied().flatten().map(|m| m.dist)))
        })
        .collect()
}

/// Checks one job's output: one report per length in order, every motif
/// outside its trivial-match zone with a distance that matches a direct
/// recomputation, and the STOMP answers at the reference lengths.
pub fn check_output(
    params: &Params,
    series: &Series,
    out: &ValmodOutput,
    stomp: &[(usize, Option<f64>)],
) -> Result<(), String> {
    let lengths: Vec<usize> = out.per_length.iter().map(|r| r.l).collect();
    if lengths != (params.l_min..=params.l_max).collect::<Vec<_>>() {
        return Err("per-length reports do not cover the range in order".into());
    }
    let values = series.values();
    for r in &out.per_length {
        let Some(m) = r.motif else { continue };
        if m.l != r.l || m.b - m.a < POLICY.radius(r.l) || m.b + r.l > values.len() {
            return Err(format!("l={}: motif ({}, {}) is not a valid pair", r.l, m.a, m.b));
        }
        let direct = znorm_dist(&values[m.a..m.a + r.l], &values[m.b..m.b + r.l]);
        if !close(m.dist, direct) {
            return Err(format!("l={}: reported {} but direct distance is {direct}", r.l, m.dist));
        }
    }
    for &(l, want) in stomp {
        let got = out.per_length[l - params.l_min].motif.map(|m| m.dist);
        match (got, want) {
            (Some(g), Some(w)) if close(g, w) => {}
            (None, None) => {}
            other => return Err(format!("l={l}: VALMOD {:?} vs STOMP {:?}", other.0, other.1)),
        }
    }
    Ok(())
}

/// Lower-bound shape of one output: (fallback lengths ÷ advanced lengths,
/// valid rows ÷ classified rows, refined rows).
pub fn lb_shape(out: &ValmodOutput) -> (f64, f64, usize) {
    let advanced = &out.per_length[1..];
    let fallbacks = advanced.iter().filter(|r| r.method == LengthMethod::Fallback).count();
    let valid: usize = advanced.iter().map(|r| r.valid_rows).sum();
    let classified: usize = advanced.iter().map(|r| r.valid_rows + r.nonvalid_rows).sum();
    let refined: usize = advanced.iter().map(|r| r.recomputed_rows).sum();
    (
        ratio(fallbacks as f64, advanced.len() as f64),
        ratio(valid as f64, classified as f64),
        refined,
    )
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs the workload: set-up (repeated, median reported), the timed phase,
/// then the checks.
pub fn run(params: &Params, ctx: &RunContext) -> Result<Outcome, String> {
    let mut out = Outcome::default();

    // Set-up: input generation plus one warm-up job, whose output is the
    // reference every timed job must reproduce bit for bit.
    let mut setups = Vec::new();
    let mut prepared = None;
    for _ in 0..ctx.setups.max(1) {
        let t = Instant::now();
        let series = params.series();
        let warm = params.job(&series)?;
        setups.push(t.elapsed().as_secs_f64());
        prepared = Some((series, warm));
    }
    let (series, reference) = prepared.expect("at least one set-up");
    let estimate = Duration::from_secs_f64(median(&setups));

    // Timed phase. A job starts only while it is expected to finish inside
    // the window, so the run stays near `--seconds` however long a job is.
    // The traced run alternates `Valmod::run` jobs with re-driven ones and
    // runs at least one of each.
    let mut plain_ms = Vec::new();
    let mut traced: Vec<LayerTimes> = Vec::new();
    let mut outputs = Vec::new();
    let start = Instant::now();
    let mut typical = estimate;
    let min_jobs = if ctx.trace { 2 } else { 1 };
    loop {
        let done = plain_ms.len() + traced.len();
        if done >= min_jobs && start.elapsed() + typical > ctx.seconds {
            break;
        }
        let redriven = ctx.trace && done % 2 == 1;
        let t = Instant::now();
        let result = if redriven {
            redrive(params, &series).map(|(o, times)| {
                traced.push(times);
                o
            })
        } else {
            params.job(&series).inspect(|_| plain_ms.push(ms(t.elapsed())))
        };
        typical = t.elapsed();
        outputs.push((redriven, result));
    }
    let elapsed = start.elapsed().as_secs_f64();
    let peak_rss = sys::peak_rss_mb(None)?;

    // Checks, outside the timed phase.
    let stomp = stomp_reference(params, &series)?;
    out.attempted = outputs.len() as u64;
    for (redriven, result) in &outputs {
        let verdict = match result {
            Err(e) => Err(format!("job failed: {e}")),
            Ok(o) if !same_output(o, &reference) => Err(if *redriven {
                "re-driven output differs from Valmod::run".to_string()
            } else {
                "job output differs from the warm-up job's".to_string()
            }),
            Ok(o) => check_output(params, &series, o, &stomp),
        };
        if let Err(e) = verdict {
            eprintln!("{}: {e}", if *redriven { "re-drive" } else { "job" });
            out.fail(true);
        }
    }

    let (fallback_ratio, valid_ratio, refined) = lb_shape(&reference);
    out.note("params", params.to_json());
    out.note("jobs", plain_ms.len());
    out.note("redriven_jobs", traced.len());
    out.note("p90_samples_beyond", beyond(plain_ms.len(), 0.9));
    out.note("core.lb.fallback_ratio", fallback_ratio);
    out.note("core.lb.valid_row_ratio", valid_ratio);
    out.note("core.lb.refined_rows", refined);
    out.note(
        "fallback_lengths",
        Json::Arr(
            reference
                .per_length
                .iter()
                .filter(|r| r.method == LengthMethod::Fallback)
                .map(|r| r.l.into())
                .collect(),
        ),
    );

    out.set("setup_s", median(&setups));
    out.set("latency_p50_ms", median(&plain_ms));
    out.set("latency_p90_ms", percentile(&plain_ms, 0.9));
    out.set("throughput_rps", plain_ms.len() as f64 / elapsed);
    out.set("peak_rss_mb", peak_rss);

    if ctx.trace {
        trace_metrics(
            &mut out,
            &series,
            &traced,
            &plain_ms,
            (fallback_ratio, valid_ratio, refined),
        )?;
    }
    Ok(out)
}

/// Per-layer metrics from the re-driven jobs: mean time per job in each
/// layer, the untraced residual, and the bare-kernel share of `compute_mp`.
fn trace_metrics(
    out: &mut Outcome,
    series: &Series,
    traced: &[LayerTimes],
    plain_ms: &[f64],
    (fallback_ratio, valid_ratio, refined): (f64, f64, usize),
) -> Result<(), String> {
    let per_job = |f: &dyn Fn(&LayerTimes) -> f64| mean(&traced.iter().map(f).collect::<Vec<_>>());
    let compute_mp_ms = per_job(&|t| ms(t.compute_mp));

    // The bare diagonal kernel at the same (n, ℓ) as each compute_mp call
    // of one job; the rest of compute_mp is the LB harvest.
    let lengths = traced.first().map(|t| t.compute_mp_lengths.clone()).unwrap_or_default();
    let stomp_ms = bare_stomp_ms(series.values(), &lengths)?;

    let traced_wall: Vec<f64> = traced.iter().map(|t| ms(t.wall)).collect();
    out.set("core.compute_mp.calls", per_job(&|t| t.compute_mp_lengths.len() as f64));
    out.set("core.compute_mp.busy_ms", compute_mp_ms);
    out.set("mp.stomp.busy_ms", stomp_ms);
    out.set("core.harvest.busy_ms", compute_mp_ms - stomp_ms);
    out.set("core.sub_mp.calls", per_job(&|t| t.sub_mp_calls as f64));
    out.set("core.sub_mp.busy_ms", per_job(&|t| ms(t.sub_mp)));
    out.set("core.valmp.busy_ms", per_job(&|t| ms(t.valmp)));
    out.set("core.lb.fallback_ratio", fallback_ratio);
    out.set("core.lb.valid_row_ratio", valid_ratio);
    out.set("core.lb.refined_rows", refined as f64);
    out.set("data.profile_ms", per_job(&|t| ms(t.profile)));
    out.set("trace.latency_p50_ms", median(&traced_wall));
    out.set("trace.overhead_ms", median(&traced_wall) - median(plain_ms));
    out.set("trace.untraced_ms", per_job(&|t| ms(t.untraced())));
    out.note("trace.wall_ms", mean(&traced_wall));
    Ok(())
}

/// Milliseconds the bare diagonal kernel (`stomp_diagonal_ws`, no LB
/// harvest) takes for one full profile at each of `lengths` over `values`.
pub fn bare_stomp_ms(values: &[f64], lengths: &[usize]) -> Result<f64, String> {
    let ps = ProfiledSeries::from_values(values).map_err(|e| e.to_string())?;
    let mut ws = Workspace::new();
    let t = Instant::now();
    for &l in lengths {
        std::hint::black_box(
            stomp_diagonal_ws(&ps, l, POLICY, &mut ws).map_err(|e| e.to_string())?,
        );
    }
    Ok(ms(t.elapsed()))
}

/// Median `ProfiledSeries` construction time over five builds, ms.
pub fn profile_ms(values: &[f64]) -> Result<f64, String> {
    let mut times = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        std::hint::black_box(ProfiledSeries::from_values(values).map_err(|e| e.to_string())?);
        times.push(ms(t.elapsed()));
    }
    Ok(median(&times))
}
