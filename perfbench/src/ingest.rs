//! `serve_ingest`: one open-loop writer against a durable `valmod serve
//! --data-dir` child. Batch `k` is due at `k / rate` seconds: the writer
//! sends a 16-sample APPEND, then the MOTIFS query on `[64, 80]` that must
//! reflect the new version. Freshness latency runs from the batch's due
//! time to the arrival of that reply, so a stall also charges the batches
//! queued behind it. The rate keeps the server busy less than half the time
//! even at the run's largest series length.

use std::time::{Duration, Instant};

use valmod_data::datasets::ecg_like;
use valmod_mp::ExclusionPolicy;
use valmod_serve::protocol::{response_query, Request};
use valmod_serve::{Client, Persistence, Value};

use crate::discover::{bare_stomp_ms, profile_ms};
use crate::report::{Json, Outcome};
use crate::server::{
    body_of, fetch_stats, query_spec, reference_engine, stats_layers, ServerChild,
};
use crate::stats::{beyond, mean, median, percentile, ratio};
use crate::{sys, RunContext};

const SERIES: &str = "ingest";

/// The workload's inputs and schedule.
#[derive(Debug, Clone)]
pub struct Params {
    /// Points loaded before the first batch.
    pub n: usize,
    /// Samples per APPEND.
    pub batch: usize,
    /// Batches per second.
    pub rate: f64,
    /// The query range.
    pub lengths: (usize, usize),
    /// `top` of the query.
    pub top: usize,
    /// Input seed.
    pub seed: u64,
}

impl Params {
    /// The full-size workload.
    pub fn full(seed: u64) -> Params {
        Params { n: 2048, batch: 16, rate: 1.5, lengths: (64, 80), top: 3, seed }
    }

    /// One continuous ECG-like stream: the first `n` points are loaded,
    /// the rest arrive in batches (enough for `seconds` at `rate`).
    pub fn stream(&self, seconds: f64) -> Vec<f64> {
        let batches = (seconds * self.rate).ceil() as usize + 1;
        ecg_like(self.n + batches * self.batch, self.seed).into_values()
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("n", Json::from(self.n)),
            ("batch", self.batch.into()),
            ("rate", self.rate.into()),
            ("l_min", self.lengths.0.into()),
            ("l_max", self.lengths.1.into()),
            ("top", self.top.into()),
            ("p", 50usize.into()),
            ("durable", true.into()),
        ])
    }
}

/// One batch and its query, as timed and answered.
#[derive(Debug, Clone)]
pub struct Op {
    /// Freshness latency: due time to the query reply, ms.
    pub latency_ms: f64,
    /// How late the APPEND went out after its due time, ms.
    pub late_ms: f64,
    /// The query's `body`, or the error.
    pub reply: Result<String, String>,
}

fn query(params: &Params) -> Value {
    let (lo, hi) = params.lengths;
    Request::Query(query_spec(SERIES, true, lo, hi, params.top)).to_value()
}

fn append_request(values: &[f64]) -> Value {
    Request::Append { name: SERIES.to_string(), values: values.to_vec() }.to_value()
}

/// APPEND one batch, then query: the query's body, which must carry the
/// version the APPEND acknowledged.
fn append_and_query(client: &mut Client, batch: &[f64], params: &Params) -> Result<String, String> {
    let ack = client.roundtrip_value(&append_request(batch)).map_err(|e| format!("APPEND: {e}"))?;
    let version = ack.result.get("version").and_then(Value::as_u64).ok_or("ack without version")?;
    let resp = client.roundtrip_value(&query(params)).map_err(|e| format!("MOTIFS: {e}"))?;
    let got = resp.result.get("version").and_then(Value::as_u64);
    if got != Some(version) {
        return Err(format!("reply reflects version {got:?}, not {version}"));
    }
    body_of(&resp.result).ok_or_else(|| "reply has no body".to_string())
}

/// Runs the workload.
pub fn run(params: &Params, ctx: &RunContext) -> Result<Outcome, String> {
    let stream = params.stream(ctx.seconds.as_secs_f64());
    let initial = &stream[..params.n];
    let batches: Vec<&[f64]> = stream[params.n..].chunks(params.batch).collect();
    let mut out = Outcome::default();

    // Set-up, repeated: a fresh data dir, server start, LOAD, and one
    // warm-up query (the cold anchor every later query also pays).
    let mut setups = Vec::new();
    let mut live = None;
    for i in 0..ctx.setups.max(1) {
        let dir = ctx.scratch_dir(&format!("ingest-{i}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let t = Instant::now();
        let server = ServerChild::start(&ctx.server, &["--data-dir", &dir.to_string_lossy()])?;
        let mut client = server.connect()?;
        client
            .load(SERIES, initial.to_vec(), Vec::new(), false)
            .map_err(|e| format!("LOAD: {e}"))?;
        client.roundtrip_value(&query(params)).map_err(|e| format!("warm-up query: {e}"))?;
        setups.push(t.elapsed().as_secs_f64());
        if i + 1 < ctx.setups.max(1) {
            server.stop(&mut client)?;
            let _ = std::fs::remove_dir_all(&dir);
        } else {
            live = Some((server, client, dir));
        }
    }
    let (server, mut client, dir) = live.expect("at least one set-up");

    // Timed phase: open loop on a fixed schedule.
    let stats_t = Instant::now();
    let before = fetch_stats(&mut client)?;
    let mut stats_ms = stats_t.elapsed().as_secs_f64() * 1e3;
    let period = Duration::from_secs_f64(1.0 / params.rate);
    let start = Instant::now();
    let mut ops = Vec::new();
    for (k, batch) in batches.iter().enumerate() {
        let due = start + period * k as u32;
        if due > start + ctx.seconds {
            break;
        }
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let late_ms = due.elapsed().as_secs_f64() * 1e3;
        let reply = append_and_query(&mut client, batch, params);
        ops.push(Op { latency_ms: due.elapsed().as_secs_f64() * 1e3, late_ms, reply });
    }
    let elapsed = start.elapsed().as_secs_f64();
    let stats_t = Instant::now();
    let after = fetch_stats(&mut client)?;
    stats_ms += stats_t.elapsed().as_secs_f64() * 1e3;
    let peak_rss = sys::peak_rss_mb(Some(server.pid()))?;
    server.stop(&mut client)?;
    let _ = std::fs::remove_dir_all(&dir);

    // Checks: each body against a cold in-process engine replaying the same
    // LOAD + APPEND history (no fragment reuse: every query recomputes).
    let reference = reference_engine(0);
    reference
        .load(SERIES, initial.to_vec(), &[], ExclusionPolicy::HALF, false)
        .map_err(|e| format!("reference LOAD: {e}"))?;
    for (op, batch) in ops.iter().zip(&batches) {
        out.attempted += 1;
        reference.append(SERIES, batch).map_err(|e| format!("reference APPEND: {e}"))?;
        let (lo, hi) = params.lengths;
        let want = reference
            .query(query_spec(SERIES, true, lo, hi, params.top))
            .map_err(|e| format!("reference query: {e}"))?;
        match &op.reply {
            Err(e) => {
                eprintln!("batch failed: {e}");
                out.fail(false);
            }
            Ok(body) if Some(body) == body_of(&want.payload).as_ref() => {}
            Ok(_) => {
                eprintln!("MOTIFS body differs from the cold reference");
                out.fail(true);
            }
        }
    }
    reference.shutdown();
    reference.join();

    let ok_ms: Vec<f64> = ops.iter().filter(|o| o.reply.is_ok()).map(|o| o.latency_ms).collect();
    let late: Vec<f64> = ops.iter().map(|o| o.late_ms).collect();
    out.set("setup_s", median(&setups));
    out.set("latency_p50_ms", median(&ok_ms));
    out.set("latency_p90_ms", percentile(&ok_ms, 0.9));
    out.set("throughput_rps", ok_ms.len() as f64 / elapsed);
    out.set("peak_rss_mb", peak_rss);
    out.set("loadgen.late_ms_p90", percentile(&late, 0.9));
    out.set(
        "serve.mode.hit_share",
        ratio(before.delta(&after, "serve.cache.hit"), ops.len() as f64),
    );
    out.set(
        "serve.mode.cold_share",
        ratio(before.delta(&after, "serve.planner.segments_computed"), ops.len() as f64),
    );
    out.note("params", params.to_json());
    out.note("batches", ops.len());
    out.note("final_len", params.n + ops.len() * params.batch);
    out.note("p90_samples_beyond", beyond(ok_ms.len(), 0.9));
    out.note("loadgen.late_ms_p90", percentile(&late, 0.9));
    out.note("fragments_extended", before.delta(&after, "planner.fragments_extended"));
    out.note("parked_states", after.get("planner.parked_states"));
    out.note("segment_computes_per_batch", out.get("serve.mode.cold_share").unwrap_or(0.0));
    let busy_ms = before.delta(&after, "serve.cmd.append_us.sum") / 1e3
        + before.delta(&after, "serve.cmd.motifs_us.sum") / 1e3;
    out.note("server_busy_share", ratio(busy_ms / 1e3, elapsed));

    if ctx.trace {
        let opsf = ops.len() as f64;
        stats_layers(&mut out, &before, &after, opsf);
        // The bare kernel at the series length each query saw.
        let mut stomp_ms = 0.0;
        for k in 0..ops.len() {
            let len = params.n + (k + 1) * params.batch;
            stomp_ms += bare_stomp_ms(&stream[..len], &[params.lengths.0])?;
        }
        let stomp_ms = ratio(stomp_ms, opsf) * out.get("core.compute_mp.calls").unwrap_or(0.0);
        out.set("mp.stomp.busy_ms", stomp_ms);
        out.set(
            "core.harvest.busy_ms",
            out.get("core.compute_mp.busy_ms").unwrap_or(0.0) - stomp_ms,
        );
        out.set("data.profile_ms", profile_ms(&stream[..params.n + ops.len() * params.batch])?);
        out.set("serve.cmd.append_us", before.mean_between(&after, "serve.cmd.append_us"));
        out.set("serve.persist.append_us", wal_append_us(ctx, &batches[..ops.len()])?);
        protocol_layers(&mut out, params, &ops, &batches)?;
        // Accounting over the freshness latency: generator lateness, the
        // server's APPEND and MOTIFS handling, and the untraced rest.
        let covered = mean(&late)
            + (before.mean_between(&after, "serve.cmd.append_us")
                + before.mean_between(&after, "serve.cmd.motifs_us"))
                / 1e3;
        out.set("trace.untraced_ms", mean(&ok_ms) - covered);
        out.set("trace.latency_p50_ms", median(&ok_ms));
        out.set("trace.overhead_ms", ratio(stats_ms, opsf));
        out.note("trace.wall_ms", mean(&ok_ms));
    }
    // The shared scratch parent goes too once no other run is using it.
    let _ = std::fs::remove_dir(ctx.root.join(".bench_work"));
    Ok(out)
}

/// `Persistence::log_append` (WAL write + fsync) on the same batches, µs
/// per batch.
fn wal_append_us(ctx: &RunContext, batches: &[&[f64]]) -> Result<f64, String> {
    let dir = ctx.scratch_dir("ingest-wal");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let result = (|| {
        let persist = Persistence::open(&dir, u64::MAX).map_err(|e| e.to_string())?;
        let t = Instant::now();
        for (v, batch) in batches.iter().enumerate() {
            persist.log_append(SERIES, v as u64 + 2, batch).map_err(|e| e.to_string())?;
        }
        Ok(t.elapsed().as_secs_f64() * 1e6 / batches.len().max(1) as f64)
    })();
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// Protocol costs of the recorded traffic: decoding each APPEND and MOTIFS
/// line, and encoding the MOTIFS replies, µs per batch.
fn protocol_layers(
    out: &mut Outcome,
    params: &Params,
    ops: &[Op],
    batches: &[&[f64]],
) -> Result<(), String> {
    let mut decode = Vec::new();
    let mut encode = Vec::new();
    let query_line = query(params).encode();
    for (op, batch) in ops.iter().zip(batches) {
        let append_line = append_request(batch).encode();
        let t = Instant::now();
        for line in [&append_line, &query_line] {
            let v = Value::parse(line).map_err(|e| e.to_string())?;
            std::hint::black_box(Request::from_value(&v).map_err(|e| e.to_string())?);
        }
        decode.push(t.elapsed().as_secs_f64() * 1e6);
        if let Ok(body) = &op.reply {
            let payload =
                Value::obj(vec![("body", Value::parse(body).map_err(|e| e.to_string())?)]);
            let t = Instant::now();
            std::hint::black_box(response_query(payload, Some(false), false).encode());
            encode.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    out.set("serve.protocol.decode_us", mean(&decode));
    out.set("serve.protocol.encode_us", mean(&encode));
    Ok(())
}
