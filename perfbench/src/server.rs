//! A `valmod serve` child process and the STATS counters the serve
//! workloads read from it.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use valmod_mp::ExclusionPolicy;

use crate::report::Outcome;
use crate::stats::ratio;
use valmod_serve::engine::{EngineConfig, QueryEngine, QueryKind, QuerySpec};
use valmod_serve::{Client, Timeouts, Value};

/// Per-request read timeout: far above any request the workloads send, so
/// it only fires on a hung server.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// A running `valmod serve` child. Dropping it kills the process and waits
/// for it, so no server outlives the benchmark.
pub struct ServerChild {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

impl ServerChild {
    /// Starts `binary serve --addr 127.0.0.1:0 <extra…>` (default flags
    /// otherwise) and waits for its `listening on <addr>` banner.
    pub fn start(binary: &Path, extra: &[&str]) -> Result<ServerChild, String> {
        let mut child = Command::new(binary)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", binary.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut banner = String::new();
        let read = stdout.read_line(&mut banner);
        let addr = match (read, banner.trim().strip_prefix("listening on ")) {
            (Ok(_), Some(addr)) => addr.to_string(),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("server did not announce its address (got {banner:?})"));
            }
        };
        Ok(ServerChild { child, _stdout: stdout, addr })
    }

    /// The child's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Opens one client connection.
    pub fn connect(&self) -> Result<Client, String> {
        Client::connect_with(&self.addr, &Timeouts::new().with_read(READ_TIMEOUT))
            .map_err(|e| format!("connect {}: {e}", self.addr))
    }

    /// Asks the server to shut down over `client` and waits for it to exit
    /// (killing it after 30 s).
    pub fn stop(mut self, client: &mut Client) -> Result<(), String> {
        let _ = client.shutdown();
        // `self._stdout` stays open until the child has exited, so the
        // server's final message never meets a closed pipe.
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("server did not exit after shutdown".into());
                }
            }
        }
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// A MOTIFS or DISCORDS query as the serve workloads send it (`p` 50, `ℓ/2`
/// exclusion, no deadline: the engine default applies).
pub fn query_spec(series: &str, motifs: bool, l_min: usize, l_max: usize, top: usize) -> QuerySpec {
    QuerySpec {
        series: series.to_string(),
        kind: if motifs { QueryKind::Motifs { top } } else { QueryKind::Discords { top } },
        l_min,
        l_max,
        p: 50,
        policy: ExclusionPolicy::HALF,
        deadline: None,
    }
}

/// An in-process reference engine: result cache off, so every query is
/// answered by the planner from the engine's own fragments. With
/// `fragment_mb == 0` every segment is recomputed cold.
pub fn reference_engine(fragment_mb: usize) -> QueryEngine {
    let cfg = EngineConfig::builder()
        .workers(1)
        .cache_bytes(0)
        .fragment_cache_bytes(fragment_mb << 20)
        .build()
        .expect("reference engine config is valid");
    QueryEngine::new(cfg)
}

/// The encoded `body` of a query payload (the part that must match the
/// reference; the payload's `compute_ms` is wall-clock and always differs).
pub fn body_of(payload: &Value) -> Option<String> {
    payload.get("body").map(Value::encode)
}

/// Counters and histogram sums read from one STATS reply.
#[derive(Debug, Clone, Default)]
pub struct Stats {
    fields: Vec<(String, f64)>,
}

impl Stats {
    /// Flattens a STATS reply: the `planner`, `cache` and `engine` sections'
    /// numbers, plus every `obs` counter and each `obs` histogram's
    /// `count` and `sum` (as `<key>.count` / `<key>.sum`).
    pub fn from_reply(stats: &Value) -> Stats {
        let mut fields = Vec::new();
        for section in ["planner", "cache", "engine"] {
            if let Some(obj) = stats.get(section).and_then(Value::as_obj) {
                for (k, v) in obj {
                    if let Some(x) = v.as_f64() {
                        fields.push((format!("{section}.{k}"), x));
                    }
                }
            }
        }
        if let Some(obs) = stats.get("obs").and_then(Value::as_obj) {
            for (k, v) in obs {
                match v {
                    Value::Obj(_) => {
                        for part in ["count", "sum"] {
                            if let Some(x) = v.get(part).and_then(Value::as_f64) {
                                fields.push((format!("{k}.{part}"), x));
                            }
                        }
                    }
                    other => {
                        if let Some(x) = other.as_f64() {
                            fields.push((k.clone(), x));
                        }
                    }
                }
            }
        }
        Stats { fields }
    }

    /// A field's value (0 when absent: counters appear on first use).
    pub fn get(&self, key: &str) -> f64 {
        self.fields.iter().find(|(k, _)| k == key).map_or(0.0, |(_, v)| *v)
    }

    /// `after − self` for one field.
    pub fn delta(&self, after: &Stats, key: &str) -> f64 {
        after.get(key) - self.get(key)
    }

    /// Mean of a histogram over the interval `self → after`
    /// (`Δsum / Δcount`, 0 when nothing was recorded).
    pub fn mean_between(&self, after: &Stats, key: &str) -> f64 {
        ratio(self.delta(after, &format!("{key}.sum")), self.delta(after, &format!("{key}.count")))
    }
}

/// Sends STATS over `client` and flattens the reply.
pub fn fetch_stats(client: &mut Client) -> Result<Stats, String> {
    client.stats().map(|v| Stats::from_reply(&v)).map_err(|e| format!("STATS: {e}"))
}

/// Layer metrics shared by both serve workloads, from STATS deltas over the
/// timed phase, per operation.
pub fn stats_layers(out: &mut Outcome, before: &Stats, after: &Stats, ops: f64) {
    let d = |k: &str| before.delta(after, k);
    let sub_mp_calls = d("core.submp.advance_us.count");
    out.set("core.compute_mp.calls", ratio(d("core.mp.full_profiles"), ops));
    out.set("core.compute_mp.busy_ms", ratio(d("core.mp.full_profile_us.sum") / 1e3, ops));
    out.set("core.sub_mp.calls", ratio(sub_mp_calls, ops));
    out.set("core.sub_mp.busy_ms", ratio(d("core.submp.advance_us.sum") / 1e3, ops));
    out.set("core.lb.fallback_ratio", ratio(d("core.lb.fallback"), sub_mp_calls));
    out.set(
        "core.lb.valid_row_ratio",
        ratio(d("core.lb.valid_rows"), d("core.lb.valid_rows") + d("core.lb.nonvalid_rows")),
    );
    out.set("core.lb.refined_rows", ratio(d("core.lb.refined_rows"), ops));
    out.set("serve.queue.wait_us", before.mean_between(after, "serve.queue.wait_us"));
    out.set(
        "serve.cache.hit_ratio",
        ratio(d("serve.cache.hit"), d("serve.cache.hit") + d("serve.cache.miss")),
    );
    out.set(
        "serve.fragment.hit_ratio",
        ratio(
            d("planner.fragment_hits"),
            d("planner.fragment_hits") + d("planner.fragment_misses"),
        ),
    );
    out.set("serve.fragment.evictions", ratio(d("planner.fragment_evictions"), ops));
    out.set("serve.compute.calls", ratio(d("engine.computed"), ops));
    out.set("serve.compute_us", before.mean_between(after, "serve.compute_us"));
    out.set("serve.fragment.extended", d("planner.fragments_extended"));
    out.set("serve.planner.parked_states", after.get("planner.parked_states"));
}
