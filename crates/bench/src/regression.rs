//! The pinned bench-regression suite guarding the diagonal-blocked kernel.
//!
//! Unlike the figure/table binaries (which reproduce the paper's plots),
//! this suite exists to catch *performance regressions* in the hot path: it
//! times the pre-rewrite row kernel ([`valmod_mp::stomp::stomp_row`]) and
//! the diagonal-blocked kernel ([`valmod_mp::diagonal`]) over the same
//! inputs **in the same run**, so every report carries its own baseline —
//! machine speed differences cancel out of the speedup column.
//!
//! The suite is pinned: entry names are stable identifiers
//! (`stomp/n16384/l256`, `valmod/n8192/l64..96`, …) so successive
//! `BENCH_core.json` snapshots diff cleanly. `valmod bench` (the CLI) runs
//! it and writes the JSON; CI runs the `--smoke` variant, which shrinks the
//! sizes but keeps every entry name's *shape*, and only asserts the JSON is
//! well-formed — wall-clock numbers are never gated in CI.

use std::time::Instant;

use valmod_core::prelude::*;
use valmod_data::generators::random_walk;
use valmod_mp::diagonal::stomp_diagonal_ws;
use valmod_mp::stomp::stomp_row;
use valmod_mp::workspace::Workspace;
use valmod_mp::{ExclusionPolicy, ProfiledSeries, StreamingProfile};
use valmod_obs::SharedRecorder;

/// One timed comparison of the pinned suite.
#[derive(Debug, Clone)]
pub struct BenchEntry {
    /// Stable identifier, e.g. `stomp/n16384/l256`.
    pub name: String,
    /// Entry family: `stomp`, `compute_mp`, `valmod`, `streaming`,
    /// `cluster`, `planner`, `append`, or `serve_mixed`.
    pub kind: &'static str,
    /// Series size in points.
    pub n: usize,
    /// Subsequence length (`ℓ_min` for range entries).
    pub l: usize,
    /// Timed iterations per kernel (the median is reported).
    pub iters: usize,
    /// Median wall-clock of the pre-rewrite baseline kernel, when the entry
    /// has one (the row kernel / row-streamed harvest); `None` for entries
    /// that only track the current implementation over time.
    pub baseline_ms: Option<f64>,
    /// Median wall-clock of the current implementation.
    pub current_ms: f64,
}

impl BenchEntry {
    /// `baseline / current`, when a baseline was measured (> 1 = faster).
    pub fn speedup(&self) -> Option<f64> {
        self.baseline_ms.map(|b| b / self.current_ms.max(1e-9))
    }
}

/// The full suite result, serialisable to the `BENCH_core.json` schema.
#[derive(Debug, Clone)]
pub struct RegressionReport {
    /// Whether the shrunken smoke variant ran.
    pub smoke: bool,
    /// All entries, in pinned order.
    pub entries: Vec<BenchEntry>,
}

fn push_json_f64(out: &mut String, value: f64) {
    // All timings are finite; keep a stable, diff-friendly precision.
    out.push_str(&format!("{value:.4}"));
}

impl RegressionReport {
    /// Serialises to the versioned `BENCH_core.json` document.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256 + 160 * self.entries.len());
        s.push_str("{\"schema\":\"valmod-bench-regression/v1\",\"suite\":\"core\",");
        s.push_str(&format!("\"smoke\":{},\"entries\":[", self.smoke));
        for (k, e) in self.entries.iter().enumerate() {
            if k > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"name\":\"{}\",\"kind\":\"{}\",\"n\":{},\"l\":{},\"iters\":{},",
                e.name, e.kind, e.n, e.l, e.iters
            ));
            if let Some(b) = e.baseline_ms {
                s.push_str("\"baseline_ms\":");
                push_json_f64(&mut s, b);
                s.push(',');
            }
            s.push_str("\"current_ms\":");
            push_json_f64(&mut s, e.current_ms);
            if let Some(x) = e.speedup() {
                s.push_str(",\"speedup\":");
                push_json_f64(&mut s, x);
            }
            s.push('}');
        }
        s.push_str("]}");
        s
    }

    /// A human-readable table of the entries.
    pub fn table(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "{:<28} {:>10} {:>12} {:>12} {:>8}\n",
            "entry", "iters", "baseline_ms", "current_ms", "speedup"
        ));
        for e in &self.entries {
            let base = e.baseline_ms.map_or("-".into(), |b| format!("{b:.3}"));
            let speed = e.speedup().map_or("-".into(), |x| format!("{x:.2}x"));
            s.push_str(&format!(
                "{:<28} {:>10} {:>12} {:>12.3} {:>8}\n",
                e.name, e.iters, base, e.current_ms, speed
            ));
        }
        s
    }
}

/// Median wall-clock of `iters` runs of `f`, in milliseconds. The closure's
/// result is returned through `std::hint::black_box` inside `f` itself (the
/// callers bind the profile to a sink), so the work cannot be elided.
fn median_ms<F: FnMut()>(iters: usize, mut f: F) -> f64 {
    let iters = iters.max(1);
    let mut samples: Vec<f64> = (0..iters)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn iters_for(n: usize) -> usize {
    if n <= 16_384 {
        3
    } else {
        1
    }
}

const SEED: u64 = 20_180_610; // matches the figure binaries

/// Runs the pinned suite. `smoke = true` shrinks every size so the whole
/// run finishes in a few seconds (used by CI to validate the plumbing);
/// `smoke = false` runs the real sizes (STOMP at 2^14..2^17 points).
pub fn run_suite(smoke: bool) -> RegressionReport {
    let mut entries = Vec::new();

    // --- STOMP kernel: row streamer vs diagonal-blocked, same inputs. ---
    let stomp_sizes: &[(usize, usize)] = if smoke {
        &[(1_024, 64), (2_048, 64)]
    } else {
        &[(16_384, 256), (32_768, 256), (65_536, 256), (131_072, 256)]
    };
    let mut ws = Workspace::new();
    for &(n, l) in stomp_sizes {
        let ps = ProfiledSeries::from_values(&random_walk(n, SEED)).unwrap();
        let iters = iters_for(n);
        let mut sink = 0.0f64;
        let row_ms = median_ms(iters, || {
            let p = stomp_row(&ps, l, ExclusionPolicy::HALF).unwrap();
            sink += std::hint::black_box(p.mp[0]);
        });
        let diag_ms = median_ms(iters, || {
            let p = stomp_diagonal_ws(&ps, l, ExclusionPolicy::HALF, &mut ws).unwrap();
            sink += std::hint::black_box(p.mp[0]);
        });
        std::hint::black_box(sink);
        entries.push(BenchEntry {
            name: format!("stomp/n{n}/l{l}"),
            kind: "stomp",
            n,
            l,
            iters,
            baseline_ms: Some(row_ms),
            current_ms: diag_ms,
        });
    }

    // --- Harvesting matrix profile: the one fused diagonal pass at one
    // thread (baseline) vs two threads (current), same workspace reuse. ---
    let (hn, hl, hp) = if smoke { (1_024, 32, 8) } else { (8_192, 128, 50) };
    {
        let ps = ProfiledSeries::from_values(&random_walk(hn, SEED)).unwrap();
        let iters = iters_for(hn);
        let noop = SharedRecorder::noop();
        let mut sink = 0usize;
        let mut pass_ms = |threads: usize| {
            let mut hws = Workspace::new();
            median_ms(iters, || {
                let h = valmod_core::compute_matrix_profile_with_ws(
                    &ps,
                    hl,
                    hp,
                    ExclusionPolicy::HALF,
                    threads,
                    &noop,
                    &mut hws,
                )
                .unwrap();
                sink += std::hint::black_box(h.partials.len());
            })
        };
        let one_ms = pass_ms(1);
        let two_ms = pass_ms(2);
        std::hint::black_box(sink);
        entries.push(BenchEntry {
            name: format!("compute_mp/n{hn}/l{hl}/p{hp}/threads{{1,2}}"),
            kind: "compute_mp",
            n: hn,
            l: hl,
            iters,
            baseline_ms: Some(one_ms),
            current_ms: two_ms,
        });
    }

    // --- VALMOD range sweep: current implementation only (tracked over
    // time; the interesting baseline is the previous snapshot). ---
    let (vn, vl_min, vl_max, vp) = if smoke { (1_024, 24, 32, 8) } else { (8_192, 64, 96, 50) };
    {
        let series = Series::new(random_walk(vn, SEED)).unwrap();
        let iters = iters_for(vn);
        let mut sink = 0usize;
        let run_ms = median_ms(iters, || {
            let out = Valmod::new(vl_min, vl_max).p(vp).run(&series).unwrap();
            sink += std::hint::black_box(out.per_length.len());
        });
        std::hint::black_box(sink);
        entries.push(BenchEntry {
            name: format!("valmod/n{vn}/l{vl_min}..{vl_max}/p{vp}"),
            kind: "valmod",
            n: vn,
            l: vl_min,
            iters,
            baseline_ms: None,
            current_ms: run_ms,
        });
    }

    // --- Streaming append throughput: current implementation only. ---
    let (sn, sl, appended) = if smoke { (2_048, 32, 256) } else { (16_384, 128, 4_096) };
    {
        let values = random_walk(sn + appended, SEED);
        let iters = iters_for(sn);
        let mut sink = 0.0f64;
        let append_ms = median_ms(iters, || {
            let mut sp = StreamingProfile::new(&values[..sn], sl, ExclusionPolicy::HALF).unwrap();
            sp.extend(&values[sn..]).unwrap();
            sink += std::hint::black_box(sp.profile().mp[0]);
        });
        std::hint::black_box(sink);
        entries.push(BenchEntry {
            name: format!("streaming/n{sn}/l{sl}/append{appended}"),
            kind: "streaming",
            n: sn,
            l: sl,
            iters,
            baseline_ms: None,
            current_ms: append_ms,
        });
    }

    // --- Cluster scaling: the same STOMP case dispatched across 1/2/4
    // in-process workers over loopback TCP. The 1-worker time is the
    // baseline for the multi-worker entries, so the speedup column reads
    // directly as scaling efficiency. Series shipping (`load_job`) is
    // inside the timed region — the number is end-to-end job latency.
    let (cn, cl) = if smoke { (2_048, 64) } else { (131_072, 256) };
    {
        use valmod_cluster::{
            run_distributed, spawn_local_workers, CoordinatorConfig, JobSpec, WorkerConfig,
        };
        let values = random_walk(cn, SEED);
        let mut one_worker_ms = None;
        for w in [1usize, 2, 4] {
            let workers = spawn_local_workers(w, WorkerConfig::default()).unwrap();
            let addrs: Vec<String> = workers.iter().map(|x| x.addr()).collect();
            let cfg = CoordinatorConfig { parts_per_length: 2 * w, ..CoordinatorConfig::default() };
            let iters = if smoke { 2 } else { 1 };
            let mut sink = 0usize;
            let ms = median_ms(iters, || {
                let spec = JobSpec::new("bench", values.clone(), cl, cl);
                let run = run_distributed(&spec, &addrs, &cfg, &SharedRecorder::noop()).unwrap();
                sink += std::hint::black_box(run.output.profiles.len());
            });
            std::hint::black_box(sink);
            for worker in workers {
                worker.shutdown();
            }
            if w == 1 {
                one_worker_ms = Some(ms);
            }
            entries.push(BenchEntry {
                name: format!("cluster/n{cn}/l{cl}/w{w}"),
                kind: "cluster",
                n: cn,
                l: cl,
                iters,
                baseline_ms: if w == 1 { None } else { one_worker_ms },
                current_ms: ms,
            });
        }
    }

    // --- Serve query planner: a warm overlapping-range sweep composed from
    // the fragment cache vs the same sweep on an engine with a zero
    // fragment budget (every query a full recompute). Both engines run with
    // the result cache off, so the column isolates fragment reuse. The
    // warm engine is primed outside the timed region. ---
    let (pn, plo, phi, pp) = if smoke { (2_048, 24, 48, 8) } else { (8_192, 64, 96, 50) };
    {
        use valmod_serve::engine::{EngineConfig, QueryEngine, QueryKind, QuerySpec};
        let engine = |fragment_bytes: usize| {
            QueryEngine::new(
                EngineConfig::builder()
                    .workers(1)
                    .queue_depth(32)
                    .cache_bytes(0)
                    .fragment_cache_bytes(fragment_bytes)
                    .default_deadline(std::time::Duration::from_secs(600))
                    .build()
                    .unwrap(),
            )
        };
        let spec = |kind: QueryKind| QuerySpec {
            series: "bench".into(),
            kind,
            l_min: plo,
            l_max: phi,
            p: pp,
            policy: ExclusionPolicy::HALF,
            deadline: None,
        };
        // Motifs and discords with varying ranking knobs all share one
        // fragment key, so the whole sweep reuses the primed fragments.
        let sweep = [
            QueryKind::Motifs { top: 3 },
            QueryKind::Discords { top: 2 },
            QueryKind::Motifs { top: 5 },
            QueryKind::Discords { top: 4 },
        ];
        let values = random_walk(pn, SEED);
        let iters = if smoke { 2 } else { 1 };
        let mut sink = 0usize;

        let warm = engine(64 << 20);
        warm.load("bench", values.clone(), &[], ExclusionPolicy::HALF, false).unwrap();
        warm.query(spec(QueryKind::Motifs { top: 3 })).unwrap(); // prime
        let warm_ms = median_ms(iters, || {
            for kind in sweep.clone() {
                let out = warm.query(spec(kind)).unwrap();
                sink += std::hint::black_box(out.payload.encode().len());
            }
        });
        warm.shutdown();
        warm.join();

        let cold = engine(0);
        cold.load("bench", values, &[], ExclusionPolicy::HALF, false).unwrap();
        let cold_ms = median_ms(iters, || {
            for kind in sweep.clone() {
                let out = cold.query(spec(kind)).unwrap();
                sink += std::hint::black_box(out.payload.encode().len());
            }
        });
        cold.shutdown();
        cold.join();

        std::hint::black_box(sink);
        entries.push(BenchEntry {
            name: format!("planner/n{pn}/l{plo}..{phi}/sweep{}", sweep.len()),
            kind: "planner",
            n: pn,
            l: plo,
            iters,
            baseline_ms: Some(cold_ms),
            current_ms: warm_ms,
        });
    }

    // --- Incremental append→query: a warm engine whose parked fragment
    // states are lazily extended over each APPEND batch vs a zero-budget
    // engine that recomputes from scratch. Single-length queries so the
    // revival is pure tail extension (O(k·n)) against a cold O(n²) STOMP;
    // both engines replay the same LOAD + APPEND schedule, and the append
    // itself sits inside the timed region on both sides. ---
    let (an, al, ak) = if smoke { (2_048, 32, 64) } else { (8_192, 64, 128) };
    {
        use valmod_serve::engine::{EngineConfig, QueryEngine, QueryKind, QuerySpec};
        let engine = |fragment_bytes: usize| {
            QueryEngine::new(
                EngineConfig::builder()
                    .workers(1)
                    .queue_depth(32)
                    .cache_bytes(0)
                    .fragment_cache_bytes(fragment_bytes)
                    .default_deadline(std::time::Duration::from_secs(600))
                    .build()
                    .unwrap(),
            )
        };
        let spec = || QuerySpec {
            series: "bench".into(),
            kind: QueryKind::Motifs { top: 3 },
            l_min: al,
            l_max: al,
            p: 5,
            policy: ExclusionPolicy::HALF,
            deadline: None,
        };
        let iters = if smoke { 3 } else { 2 };
        let values = random_walk(an + ak * iters, SEED);
        let mut sink = 0usize;

        let warm = engine(64 << 20);
        warm.load("bench", values[..an].to_vec(), &[], ExclusionPolicy::HALF, false).unwrap();
        warm.query(spec()).unwrap(); // prime: parks the segment state
        let mut warm_n = an;
        let warm_ms = median_ms(iters, || {
            warm.append("bench", &values[warm_n..warm_n + ak]).unwrap();
            warm_n += ak;
            let out = warm.query(spec()).unwrap();
            sink += std::hint::black_box(out.payload.encode().len());
        });
        warm.shutdown();
        warm.join();

        let cold = engine(0);
        cold.load("bench", values[..an].to_vec(), &[], ExclusionPolicy::HALF, false).unwrap();
        cold.query(spec()).unwrap(); // symmetric first compute
        let mut cold_n = an;
        let cold_ms = median_ms(iters, || {
            cold.append("bench", &values[cold_n..cold_n + ak]).unwrap();
            cold_n += ak;
            let out = cold.query(spec()).unwrap();
            sink += std::hint::black_box(out.payload.encode().len());
        });
        cold.shutdown();
        cold.join();

        std::hint::black_box(sink);
        entries.push(BenchEntry {
            name: format!("append/n{an}/l{al}/k{ak}"),
            kind: "append",
            n: an,
            l: al,
            iters,
            baseline_ms: Some(cold_ms),
            current_ms: warm_ms,
        });
    }

    // --- Sharded serve engine under a mixed concurrent workload: four
    // independent per-series op streams (fixed-length MOTIFS and
    // DISCORDS at the series' hot length, APPEND batches, STATS probes,
    // each op followed by a short client think-time) executed by one
    // client thread running the streams back to back vs four threads
    // running one stream each. The series carry a hot length and the
    // engine is primed outside the timed region, so the timed ops are the
    // live steady state — cache hits, O(k) appends, and revivals of the
    // pinned single-length state (an O(k·n) extension), not initial
    // O(n²) colds (those serialise on any worker pool and would drown the
    // concurrency signal on a small host). Total work is identical on
    // both sides; the speedup column is the concurrency win of the
    // striped store — think-times alone overlap, so four threads must
    // land at or above 1.0x even on a single core. ---
    let (mn, ml, mops) = if smoke { (2_048, 32, 20) } else { (8_192, 64, 20) };
    {
        use valmod_serve::engine::{EngineConfig, QueryEngine, QueryKind, QuerySpec};

        fn mixed_spec(name: &str, kind: QueryKind, ml: usize) -> QuerySpec {
            QuerySpec {
                series: name.into(),
                kind,
                l_min: ml,
                l_max: ml,
                p: 8,
                policy: ExclusionPolicy::HALF,
                deadline: None,
            }
        }

        fn mixed_stream(engine: &QueryEngine, stream: usize, ml: usize, mops: usize) {
            let name = format!("s{stream}");
            let tail = random_walk(mops * 16, SEED + 500 + stream as u64);
            for j in 0..mops {
                match j % 5 {
                    4 => {
                        engine.append(&name, &tail[j * 16..(j + 1) * 16]).unwrap();
                    }
                    3 => {
                        std::hint::black_box(engine.stats());
                    }
                    rest => {
                        let kind = if rest == 2 {
                            QueryKind::Discords { top: 2 }
                        } else {
                            QueryKind::Motifs { top: 3 }
                        };
                        engine.query(mixed_spec(&name, kind, ml)).unwrap();
                    }
                }
                // Client round-trip think-time: the part of a real mixed
                // workload that trivially overlaps across threads.
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }

        let run = |threads: usize| -> f64 {
            // Budgets are per-stripe after the split (DEFAULT_STRIPES = 8),
            // so they must hold a full-size series' parked fragment state
            // per stripe — a starved stripe silently degrades every
            // post-append query to a cold recompute and drowns the
            // concurrency signal in kernel time.
            let engine = std::sync::Arc::new(QueryEngine::new(
                EngineConfig::builder()
                    .workers(4)
                    .queue_depth(64)
                    .cache_bytes(64 << 20)
                    .fragment_cache_bytes(64 << 20)
                    .default_deadline(std::time::Duration::from_secs(600))
                    .build()
                    .unwrap(),
            ));
            for s in 0..4 {
                let name = format!("s{s}");
                let values = random_walk(mn, SEED + s as u64);
                engine.load(&name, values, &[ml], ExclusionPolicy::HALF, false).unwrap();
                // Prime the pinned state: the timed streams then pay a
                // single-length revival after each append, never the
                // initial cold compute.
                engine.query(mixed_spec(&name, QueryKind::Discords { top: 2 }, ml)).unwrap();
            }
            let start = Instant::now();
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let engine = std::sync::Arc::clone(&engine);
                    std::thread::spawn(move || {
                        let mut s = t;
                        while s < 4 {
                            mixed_stream(&engine, s, ml, mops);
                            s += threads;
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            let ms = start.elapsed().as_secs_f64() * 1e3;
            engine.shutdown();
            engine.join();
            ms
        };

        let one_ms = run(1);
        let four_ms = run(4);
        entries.push(BenchEntry {
            name: format!("serve_mixed/n{mn}/series4/threads{{1,4}}"),
            kind: "serve_mixed",
            n: mn,
            l: ml,
            iters: 1,
            baseline_ms: Some(one_ms),
            current_ms: four_ms,
        });
    }

    RegressionReport { smoke, entries }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_suite_produces_every_pinned_entry_kind() {
        let report = run_suite(true);
        let kinds: Vec<&str> = report.entries.iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&"stomp"));
        assert!(kinds.contains(&"compute_mp"));
        assert!(kinds.contains(&"valmod"));
        assert!(kinds.contains(&"streaming"));
        assert!(kinds.contains(&"cluster"));
        assert!(kinds.contains(&"planner"));
        assert!(kinds.contains(&"append"));
        assert!(kinds.contains(&"serve_mixed"));
        for e in &report.entries {
            assert!(e.current_ms > 0.0, "{}: non-positive timing", e.name);
            if let Some(b) = e.baseline_ms {
                assert!(b > 0.0, "{}: non-positive baseline", e.name);
            }
        }
    }

    #[test]
    fn json_round_trips_through_the_wire_parser() {
        let report = run_suite(true);
        let json = report.to_json();
        let value = valmod_serve::Value::parse(&json).expect("self-emitted JSON must parse");
        assert_eq!(
            value.get("schema").and_then(|v| v.as_str()),
            Some("valmod-bench-regression/v1")
        );
        let entries = value.get("entries").and_then(|v| v.as_arr()).unwrap();
        assert_eq!(entries.len(), report.entries.len());
        for (e, v) in report.entries.iter().zip(entries) {
            assert_eq!(v.get("name").and_then(|x| x.as_str()), Some(e.name.as_str()));
            let cur = v.get("current_ms").and_then(|x| x.as_f64()).unwrap();
            assert!((cur - e.current_ms).abs() < 1e-3);
            assert_eq!(v.get("baseline_ms").is_some(), e.baseline_ms.is_some());
            assert_eq!(v.get("speedup").is_some(), e.baseline_ms.is_some());
        }
    }

    #[test]
    fn table_lists_every_entry() {
        let report = RegressionReport {
            smoke: true,
            entries: vec![BenchEntry {
                name: "stomp/n1024/l64".into(),
                kind: "stomp",
                n: 1024,
                l: 64,
                iters: 3,
                baseline_ms: Some(2.0),
                current_ms: 1.0,
            }],
        };
        let t = report.table();
        assert!(t.contains("stomp/n1024/l64"));
        assert!(t.contains("2.00x"));
        assert_eq!(report.entries[0].speedup(), Some(2.0));
    }
}
