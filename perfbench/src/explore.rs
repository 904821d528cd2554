//! `serve_explore`: two closed-loop clients against a `valmod serve` child
//! (default flags) over loopback TCP. Each client owns one resident series,
//! on its own stripe, and sends a seeded mix of MOTIFS and DISCORDS whose
//! latency mode is fixed by construction:
//!
//! * **hit** — one of a few hot queries primed in set-up: answered from the
//!   result cache;
//! * **compose** — a query never sent before over the primed fragment pool
//!   (first anchor 48 or 63, `ℓ_max ≤ 93`): a result-cache miss that the
//!   planner composes from cached fragments;
//! * **cold** — a fresh query anchored at one of six lengths outside the
//!   pool, taken in a fixed rotation: one segment computed from scratch.
//!   Its fragments push older ones out of the stripe's 2 MiB share, so the
//!   fragment cache both hits and evicts.
//!
//! Each client's request stream, and so its hit/miss sequence, depends only
//! on the seed and its own stripe — not on how the two clients interleave.

use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

use valmod_data::datasets::ecg_like;
use valmod_mp::ExclusionPolicy;
use valmod_serve::engine::{EngineConfig, QueryEngine};
use valmod_serve::protocol::{response_query, Request};
use valmod_serve::{stripe_of, Client, Value, DEFAULT_STRIPES};

use crate::discover::{bare_stomp_ms, profile_ms};
use crate::report::{Json, Outcome};
use crate::server::{
    body_of, fetch_stats, query_spec, reference_engine, stats_layers, ServerChild, Stats,
};
use crate::stats::{beyond, mean, median, percentile, ratio, Rng};
use crate::{sys, RunContext};

/// The workload's inputs and traffic mix.
#[derive(Debug, Clone)]
pub struct Params {
    /// Points per series.
    pub n: usize,
    /// Input seed.
    pub seed: u64,
    /// The range primed in set-up; its two segments form the fragment pool.
    pub pool: (usize, usize),
    /// First anchors of compose queries (both segment starts of the pool).
    pub compose_anchors: [usize; 2],
    /// Cold anchors with the largest `ℓ_max` each may use, so a cold query
    /// computes exactly one segment.
    pub cold: Vec<(usize, usize)>,
    /// Number of hot (primed, result-cached) queries per client.
    pub hot_keys: usize,
    /// Largest `top` a query asks for.
    pub max_top: usize,
    /// Share of requests that are hits.
    pub hit_share: f64,
    /// Share of requests that are cold.
    pub cold_share: f64,
}

impl Params {
    /// The full-size workload.
    pub fn full(seed: u64) -> Params {
        Params {
            n: 2048,
            seed,
            pool: (48, 93),
            compose_anchors: [48, 63],
            cold: vec![(50, 62), (53, 62), (57, 62), (60, 62), (98, 112), (104, 112)],
            hot_keys: 8,
            max_top: 200,
            hit_share: 0.60,
            cold_share: 0.005,
        }
    }

    /// The series client `c` works on.
    pub fn series(&self, c: usize) -> Vec<f64> {
        ecg_like(self.n, self.seed.wrapping_mul(2).wrapping_add(c as u64)).into_values()
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("n", Json::from(self.n)),
            ("pool", Json::Arr(vec![self.pool.0.into(), self.pool.1.into()])),
            (
                "compose_anchors",
                Json::Arr(self.compose_anchors.iter().map(|&a| a.into()).collect()),
            ),
            ("cold_anchors", Json::Arr(self.cold.iter().map(|&(a, _)| a.into()).collect())),
            ("hot_keys", self.hot_keys.into()),
            ("max_top", self.max_top.into()),
            ("hit_share", self.hit_share.into()),
            ("cold_share", self.cold_share.into()),
            ("p", 50usize.into()),
            ("clients", 2usize.into()),
        ])
    }
}

/// One query's cache identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Key {
    /// Smallest length.
    pub l_min: usize,
    /// Largest length.
    pub l_max: usize,
    /// MOTIFS (true) or DISCORDS.
    pub motifs: bool,
    /// Results asked for.
    pub top: usize,
}

/// The latency mode a request was built for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Result-cache hit.
    Hit,
    /// Composed from cached fragments.
    Compose,
    /// One segment computed cold.
    Cold,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Hit => "hit",
            Mode::Compose => "compose",
            Mode::Cold => "cold",
        }
    }
}

/// One client's deterministic request stream.
pub struct Stream {
    rng: Rng,
    params: Params,
    hot: Vec<Key>,
    compose: Vec<Key>,
    next_compose: usize,
    next_cold: usize,
    used: HashSet<Key>,
    block: Vec<Mode>,
}

/// Requests per block of the mode schedule: every block holds exactly the
/// configured share of each mode, shuffled, so the traffic shape does not
/// drift with the seed or the run length.
const BLOCK: usize = 200;

impl Stream {
    /// The stream of client `c`.
    pub fn new(params: &Params, c: usize) -> Stream {
        let mut rng = Rng::new(params.seed, 1 + c as u64);
        let mut compose = Vec::new();
        for &a in &params.compose_anchors {
            for b in (a + 4)..=params.pool.1 {
                for motifs in [true, false] {
                    for top in 1..=params.max_top {
                        compose.push(Key { l_min: a, l_max: b, motifs, top });
                    }
                }
            }
        }
        rng.shuffle(&mut compose);
        // Hot queries: the first few small-`top` keys of the shuffled space.
        let (hot, rest): (Vec<Key>, Vec<Key>) = {
            let mut hot = Vec::new();
            let mut rest = Vec::new();
            for k in compose {
                if hot.len() < params.hot_keys && k.top <= 5 {
                    hot.push(k);
                } else {
                    rest.push(k);
                }
            }
            (hot, rest)
        };
        let used = hot.iter().copied().collect();
        Stream {
            rng,
            params: params.clone(),
            hot,
            compose: rest,
            next_compose: 0,
            next_cold: 0,
            used,
            block: Vec::new(),
        }
    }

    /// The hot queries, primed in set-up.
    pub fn hot(&self) -> &[Key] {
        &self.hot
    }

    /// Fresh compose keys handed out so far, and how many exist.
    pub fn compose_usage(&self) -> (usize, usize) {
        (self.next_compose, self.compose.len())
    }

    /// The next request.
    pub fn next_request(&mut self) -> (Key, Mode) {
        if self.block.is_empty() {
            let hits = (self.params.hit_share * BLOCK as f64).round() as usize;
            let colds = (self.params.cold_share * BLOCK as f64).round() as usize;
            self.block =
                [(Mode::Hit, hits), (Mode::Cold, colds), (Mode::Compose, BLOCK - hits - colds)]
                    .into_iter()
                    .flat_map(|(m, count)| std::iter::repeat_n(m, count))
                    .collect();
            self.rng.shuffle(&mut self.block);
        }
        let mode = self.block.pop().expect("block refilled above");
        if mode == Mode::Hit {
            let k = self.hot[self.rng.range(0, self.hot.len() - 1)];
            return (k, Mode::Hit);
        }
        if mode == Mode::Cold {
            let (a, hi) = self.params.cold[self.next_cold % self.params.cold.len()];
            self.next_cold += 1;
            for _ in 0..1000 {
                let k = Key {
                    l_min: a,
                    l_max: self.rng.range(a + 1, hi),
                    motifs: self.rng.unit() < 0.5,
                    top: self.rng.range(1, self.params.max_top),
                };
                if self.used.insert(k) {
                    return (k, Mode::Cold);
                }
            }
        }
        // A compose key never sent before; if the space ever runs out the
        // stream wraps and those requests become hits (the record shows it).
        let k = self.compose[self.next_compose % self.compose.len()];
        self.next_compose += 1;
        self.used.insert(k);
        (k, Mode::Compose)
    }
}

/// The wire request for `key` on `series`.
pub fn request(series: &str, key: &Key) -> Value {
    Request::Query(query_spec(series, key.motifs, key.l_min, key.l_max, key.top)).to_value()
}

/// One timed request and what came back.
#[derive(Debug, Clone)]
pub struct Sample {
    /// The query.
    pub key: Key,
    /// The mode it was built for.
    pub mode: Mode,
    /// Client round trip, µs.
    pub rtt_us: f64,
    /// `(cached, body)` or the error.
    pub reply: Result<(bool, String), String>,
}

/// The two series names: the first `explore-<i>` names on distinct stripes.
pub fn series_names() -> [String; 2] {
    let first = "explore-0".to_string();
    let s0 = stripe_of(&first, DEFAULT_STRIPES);
    let second = (1..)
        .map(|i| format!("explore-{i}"))
        .find(|name| stripe_of(name, DEFAULT_STRIPES) != s0)
        .expect("some name lands on another stripe");
    [first, second]
}

fn ask(client: &mut Client, req: &Value) -> Result<(bool, String), String> {
    let resp = client.roundtrip_value(req).map_err(|e| e.to_string())?;
    let body = body_of(&resp.result).ok_or("reply has no body")?;
    Ok((resp.cached.unwrap_or(false), body))
}

/// What set-up asks client `c`'s series after LOAD: the pool range, whose
/// two segments become the cached fragments, then the hot queries.
fn priming_keys(params: &Params, c: usize) -> Vec<Key> {
    let pool = Key { l_min: params.pool.0, l_max: params.pool.1, motifs: true, top: 3 };
    std::iter::once(pool).chain(Stream::new(params, c).hot().iter().copied()).collect()
}

/// Loads a client's series and sends its priming queries.
fn prime(client: &mut Client, name: &str, values: Vec<f64>, keys: &[Key]) -> Result<(), String> {
    client.load(name, values, Vec::new(), false).map_err(|e| format!("LOAD: {e}"))?;
    for key in keys {
        ask(client, &request(name, key))?;
    }
    Ok(())
}

/// Runs the workload.
pub fn run(params: &Params, ctx: &RunContext) -> Result<Outcome, String> {
    let names = series_names();
    let values = [params.series(0), params.series(1)];
    let mut out = Outcome::default();

    // Set-up, repeated: server start, LOAD, priming. The last one stays up.
    let mut setups = Vec::new();
    let mut live = None;
    for i in 0..ctx.setups.max(1) {
        let t = Instant::now();
        let server = ServerChild::start(&ctx.server, &[])?;
        let mut clients = [server.connect()?, server.connect()?];
        std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    let (name, vals) = (&names[c], values[c].clone());
                    let keys = priming_keys(params, c);
                    s.spawn(move || prime(client, name, vals, &keys))
                })
                .collect();
            handles.into_iter().try_for_each(|h| h.join().expect("priming thread panicked"))
        })?;
        setups.push(t.elapsed().as_secs_f64());
        if i + 1 < ctx.setups.max(1) {
            server.stop(&mut clients[0])?;
        } else {
            live = Some((server, clients));
        }
    }
    let (server, mut clients) = live.expect("at least one set-up");

    // Timed phase: two closed loops, no think time.
    let stats_t = Instant::now();
    let before = fetch_stats(&mut clients[0])?;
    let mut stats_ms = stats_t.elapsed().as_secs_f64() * 1e3;
    let mut streams = [Stream::new(params, 0), Stream::new(params, 1)];
    let start = Instant::now();
    let deadline = start + ctx.seconds;
    let samples: Vec<Vec<Sample>> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(streams.iter_mut())
            .zip(&names)
            .map(|((client, stream), name)| {
                s.spawn(move || {
                    let mut samples = Vec::new();
                    while Instant::now() < deadline {
                        let (key, mode) = stream.next_request();
                        let req = request(name, &key);
                        let t = Instant::now();
                        let reply = ask(client, &req);
                        let rtt_us = t.elapsed().as_secs_f64() * 1e6;
                        samples.push(Sample { key, mode, rtt_us, reply });
                    }
                    samples
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    let stats_t = Instant::now();
    let after = fetch_stats(&mut clients[0])?;
    stats_ms += stats_t.elapsed().as_secs_f64() * 1e3;
    let peak_rss = sys::peak_rss_mb(Some(server.pid()))?;
    server.stop(&mut clients[0])?;

    // Checks: every reply body against an in-process reference engine.
    let verdicts = std::thread::scope(|s| {
        let handles: Vec<_> = samples
            .iter()
            .zip(&names)
            .zip(&values)
            .map(|((samples, name), vals)| s.spawn(move || verify(name, vals, samples)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("verify thread panicked")).collect::<Vec<_>>()
    });
    for verdict in verdicts {
        for v in verdict? {
            match v {
                Verdict::Ok => {}
                Verdict::Error => out.fail(false),
                Verdict::Wrong => out.fail(true),
            }
            out.attempted += 1;
        }
    }

    let all: Vec<&Sample> = samples.iter().flatten().collect();
    let ok_ms: Vec<f64> = all.iter().filter(|s| s.reply.is_ok()).map(|s| s.rtt_us / 1e3).collect();
    out.set("setup_s", median(&setups));
    out.set("latency_p50_ms", median(&ok_ms));
    out.set("latency_p90_ms", percentile(&ok_ms, 0.9));
    out.set("throughput_rps", ok_ms.len() as f64 / elapsed);
    out.set("peak_rss_mb", peak_rss);

    record_shape(&mut out, params, &all, &streams, &before, &after);
    if ctx.trace {
        trace_metrics(&mut out, params, &names, &values, &samples, &before, &after, stats_ms)?;
    }
    Ok(out)
}

/// The outcome of checking one reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// Body equals the reference.
    Ok,
    /// The request failed (busy, deadline, connection).
    Error,
    /// The body differs from the reference.
    Wrong,
}

/// Checks every reply body against a fresh in-process engine holding the
/// same series, with its result cache off and room for every fragment.
/// Keys are evaluated widest range first per anchor, so each segment is
/// computed once.
fn verify(name: &str, values: &[f64], samples: &[Sample]) -> Result<Vec<Verdict>, String> {
    let engine = reference_engine(256);
    engine
        .load(name, values.to_vec(), &[], ExclusionPolicy::HALF, false)
        .map_err(|e| format!("reference LOAD: {e}"))?;
    let mut keys: Vec<Key> = samples.iter().map(|s| s.key).collect();
    keys.sort_by_key(|k| (k.l_min, std::cmp::Reverse(k.l_max), k.motifs, k.top));
    keys.dedup();
    let mut want = BTreeMap::new();
    for k in keys {
        let spec = query_spec(name, k.motifs, k.l_min, k.l_max, k.top);
        let payload = engine.query(spec).map_err(|e| format!("reference query {k:?}: {e}"))?;
        want.insert(k, body_of(&payload.payload).ok_or("reference payload has no body")?);
    }
    engine.shutdown();
    engine.join();
    Ok(samples
        .iter()
        .map(|s| match &s.reply {
            Err(e) => {
                eprintln!("request {:?} failed: {e}", s.key);
                Verdict::Error
            }
            Ok((_, body)) if Some(body) == want.get(&s.key) => Verdict::Ok,
            Ok(_) => {
                eprintln!("request {:?}: body differs from the reference", s.key);
                Verdict::Wrong
            }
        })
        .collect())
}

/// Traffic shape for the run record, plus the two shares every run reports.
fn record_shape(
    out: &mut Outcome,
    params: &Params,
    all: &[&Sample],
    streams: &[Stream; 2],
    before: &Stats,
    after: &Stats,
) {
    let n = all.len() as f64;
    let cached = all.iter().filter(|s| matches!(s.reply, Ok((true, _)))).count() as f64;
    let segments = before.delta(after, "serve.planner.segments_computed");
    out.set("serve.mode.hit_share", ratio(cached, n));
    out.set("serve.mode.cold_share", ratio(segments, n));
    out.note("params", params.to_json());
    out.note("requests", all.len());
    out.note("p90_samples_beyond", beyond(all.len(), 0.9));
    let mut modes = Vec::new();
    for mode in [Mode::Hit, Mode::Compose, Mode::Cold] {
        let ms: Vec<f64> = all.iter().filter(|s| s.mode == mode).map(|s| s.rtt_us / 1e3).collect();
        modes.push((
            mode.name(),
            Json::obj([
                ("share", Json::from(ratio(ms.len() as f64, n))),
                ("p50_ms", median(&ms).into()),
                ("max_ms", ms.iter().copied().fold(0.0, f64::max).into()),
            ]),
        ));
    }
    out.note("modes", Json::obj(modes));
    // The mode most samples within ±2% of each reported percentile's rank
    // were built for, and the share of that window it holds.
    let mut sorted: Vec<(f64, Mode)> = all.iter().map(|s| (s.rtt_us, s.mode)).collect();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    for (label, q) in [("p50", 0.5), ("p90", 0.9)] {
        if sorted.is_empty() {
            break;
        }
        let rank = (q * (sorted.len() - 1) as f64) as usize;
        let w = (sorted.len() / 50).max(1);
        let window = &sorted[rank.saturating_sub(w)..=(rank + w).min(sorted.len() - 1)];
        let count = |m: Mode| window.iter().filter(|s| s.1 == m).count();
        let mode = [Mode::Hit, Mode::Compose, Mode::Cold]
            .into_iter()
            .max_by_key(|&m| count(m))
            .expect("three modes");
        out.note(&format!("{label}_mode"), mode.name());
        out.note(&format!("{label}_mode_purity"), count(mode) as f64 / window.len() as f64);
    }
    out.note("observed_hit_share", ratio(cached, n));
    out.note("segment_computes_per_request", ratio(segments, n));
    out.note("fragment_hits", before.delta(after, "planner.fragment_hits"));
    out.note("fragment_evictions", before.delta(after, "planner.fragment_evictions"));
    let (used, space) = streams.iter().fold((0, 0), |(u, s), st| {
        let (a, b) = st.compose_usage();
        (u + a, s + b)
    });
    out.note("compose_keys_used", used);
    out.note("compose_keys_available", space);
}

/// Replay timings of one request: decode, engine query, encode (µs).
struct Replayed {
    decode_us: f64,
    query_us: f64,
    encode_us: f64,
}

/// Replays one client's recorded stream in-process: parse the request line,
/// run it on `engine`, encode the response.
fn replay(engine: &QueryEngine, name: &str, samples: &[Sample]) -> Result<Vec<Replayed>, String> {
    let lines: Vec<String> = samples.iter().map(|s| request(name, &s.key).encode()).collect();
    let mut out = Vec::with_capacity(lines.len());
    for line in &lines {
        let t0 = Instant::now();
        let req =
            Value::parse(line).and_then(|v| Request::from_value(&v)).map_err(|e| e.to_string())?;
        let Request::Query(spec) = req else { return Err("replayed line is not a query".into()) };
        let t1 = Instant::now();
        let outcome = engine.query(spec).map_err(|e| e.to_string())?;
        let t2 = Instant::now();
        let encoded = response_query(
            outcome.payload.as_ref().clone(),
            Some(outcome.cached),
            outcome.coalesced,
        )
        .encode();
        std::hint::black_box(encoded);
        let t3 = Instant::now();
        let us = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e6;
        out.push(Replayed { decode_us: us(t0, t1), query_us: us(t1, t2), encode_us: us(t2, t3) });
    }
    Ok(out)
}

#[allow(clippy::too_many_arguments)]
fn trace_metrics(
    out: &mut Outcome,
    params: &Params,
    names: &[String; 2],
    values: &[Vec<f64>; 2],
    samples: &[Vec<Sample>],
    before: &Stats,
    after: &Stats,
    stats_ms: f64,
) -> Result<(), String> {
    let ops = samples.iter().map(Vec::len).sum::<usize>() as f64;
    stats_layers(out, before, after, ops);

    // Kernel/harvest split: the bare kernel at the cold anchors, charged
    // once per full profile the server computed.
    let anchors: Vec<usize> = params.cold.iter().map(|&(a, _)| a).collect();
    let stomp_per_call = bare_stomp_ms(&values[0], &anchors)? / anchors.len() as f64;
    let stomp_ms = stomp_per_call * out.get("core.compute_mp.calls").unwrap_or(0.0);
    out.set("mp.stomp.busy_ms", stomp_ms);
    out.set("core.harvest.busy_ms", out.get("core.compute_mp.busy_ms").unwrap_or(0.0) - stomp_ms);
    out.set("data.profile_ms", profile_ms(&values[0])?);

    // In-process replay of both recorded streams on an engine with the
    // server's defaults, primed the same way.
    let engine = QueryEngine::new(EngineConfig::default());
    for c in 0..2 {
        engine
            .load(&names[c], values[c].clone(), &[], ExclusionPolicy::HALF, false)
            .map_err(|e| format!("replay LOAD: {e}"))?;
        for key in priming_keys(params, c) {
            let spec = query_spec(&names[c], key.motifs, key.l_min, key.l_max, key.top);
            engine.query(spec).map_err(|e| format!("replay priming: {e}"))?;
        }
    }
    let replays = std::thread::scope(|s| {
        let handles: Vec<_> = samples
            .iter()
            .zip(names)
            .map(|(samples, name)| {
                let engine = &engine;
                s.spawn(move || replay(engine, name, samples))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("replay thread panicked")).collect::<Vec<_>>()
    });
    engine.shutdown();
    engine.join();
    let mut decode = Vec::new();
    let mut query = Vec::new();
    let mut encode = Vec::new();
    let mut overhead = Vec::new();
    for (replayed, samples) in replays.into_iter().zip(samples) {
        let replayed = replayed?;
        for (r, s) in replayed.iter().zip(samples) {
            decode.push(r.decode_us);
            query.push(r.query_us);
            encode.push(r.encode_us);
            overhead.push(s.rtt_us - r.query_us);
        }
    }
    let rtt_ms: Vec<f64> = samples.iter().flatten().map(|s| s.rtt_us / 1e3).collect();
    out.set("serve.protocol.decode_us", mean(&decode));
    out.set("serve.protocol.encode_us", mean(&encode));
    out.set("serve.engine.query_us", mean(&query));
    out.set("serve.net.overhead_us", mean(&overhead));
    // Accounting over the TCP round trip: decode + query + encode, plus the
    // residual the timers do not cover (socket, client, thread hand-offs).
    let covered_ms = (mean(&decode) + mean(&query) + mean(&encode)) / 1e3;
    out.set("trace.untraced_ms", mean(&rtt_ms) - covered_ms);
    out.set("trace.latency_p50_ms", median(&rtt_ms));
    out.set("trace.overhead_ms", ratio(stats_ms, ops));
    out.note("trace.wall_ms", mean(&rtt_ms));
    Ok(())
}
