//! `valmod` — variable-length motif discovery from the command line.
//!
//! ```text
//! valmod discover  --input series.csv --min 64 --max 128 [--p 50] [--top 5] [--csv]
//! valmod sets      --input series.csv --min 64 --max 128 --k 10 --radius 3.0
//! valmod discords  --input series.csv --min 64 --max 128 [--top 3]
//! valmod mp        --input series.csv --length 96 [--output profile.csv]
//! valmod generate  --dataset ecg --n 20000 [--seed 1] --output series.csv
//! valmod serve     --addr 127.0.0.1:7700 --workers 2 --cache-mb 16
//! valmod query     --addr 127.0.0.1:7700 --cmd motifs --name sensor --min 64 --max 128
//! valmod help
//! ```
//!
//! Input files are text (one value per line, `#` comments, commas or
//! whitespace) or raw little-endian `f64` when the extension is
//! `.bin`/`.f64`.

mod args;

use std::process::ExitCode;

use args::{ArgError, Args};
use valmod_core::{
    compute_var_length_motif_sets, top_variable_length_motifs, variable_length_discords,
    LengthMethod, Valmod, ValmodConfig,
};
use valmod_data::datasets::Dataset;
use valmod_data::io;
use valmod_data::series::Series;
use valmod_mp::{stomp_parallel, ExclusionPolicy, ProfiledSeries};
use valmod_serve::engine::{EngineConfig, QueryEngine, QueryKind, QuerySpec};
use valmod_serve::{Client, Server, Value as WireValue};

/// `println!` for command output: when the reader closes the pipe early
/// (`valmod mp … | head -1`) the process ends quietly instead of panicking.
macro_rules! outln {
    ($($arg:tt)*) => {
        emit(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// `print!` counterpart of [`outln!`].
macro_rules! out {
    ($($arg:tt)*) => {
        emit(format_args!($($arg)*))
    };
}

/// Writes command output to stdout. A closed pipe exits with success —
/// the reader took all it wanted; any other write error is a bug.
fn emit(args: std::fmt::Arguments) {
    use std::io::Write;
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        panic!("failed printing to stdout: {e}");
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match args.command.as_str() {
        "discover" => cmd_discover(&args),
        "sets" => cmd_sets(&args),
        "discords" => cmd_discords(&args),
        "mp" => cmd_mp(&args),
        "profiles" => cmd_profiles(&args),
        "join" => cmd_join(&args),
        "hint" => cmd_hint(&args),
        "generate" => cmd_generate(&args),
        "serve" => cmd_serve(&args),
        "query" => cmd_query(&args),
        "stats" => cmd_stats(&args),
        "check" => cmd_check(&args),
        "bench" => cmd_bench(&args),
        "cluster-worker" => cmd_cluster_worker(&args),
        "cluster-run" => cmd_cluster_run(&args),
        "help" | "--help" | "-h" => {
            outln!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown subcommand {other:?}; try `valmod help`").into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

type CliResult = Result<(), Box<dyn std::error::Error>>;

const USAGE: &str = "\
valmod — exact variable-length motif discovery (VALMOD, SIGMOD 2018)

USAGE:
  valmod discover  --input <file> --min <len> --max <len> [--p <n>] [--top <k>] [--csv]
                   [--threads <t>]
  valmod sets      --input <file> --min <len> --max <len> [--k <n>] [--radius <D>] [--p <n>]
                   [--threads <t>]
  valmod discords  --input <file> --min <len> --max <len> [--top <k>] [--p <n>] [--threads <t>]
  valmod mp        --input <file> --length <len> [--output <file>] [--threads <t>]
  valmod profiles  --input <file> --min <len> --max <len> [--p <n>] --output <dir>
  valmod join      --input <file> --other <file> --length <len> [--top <k>]
  valmod hint      --input <file> [--top <k>] [--min-period <n>]
  valmod generate  --dataset <ecg|emg|gap|astro|eeg> --n <points> [--seed <s>] --output <file>
  valmod serve     [--addr <host:port>] [--workers <n>] [--queue <n>] [--cache-mb <n>]
                   [--fragment-cache-mb <n>] [--threads <t>] [--stripes <n>]
                   [--data-dir <dir>]
  valmod query     --addr <host:port>
                   --cmd <load|append|motifs|sets|discords|stats|ping|save|shutdown>
                   [--name <series>] [--input <file>] [--hot <l1,l2>] [--replace]
                   [--min <len>] [--max <len>] [--p <n>] [--top <k>] [--k <n>] [--radius <D>]
                   [--deadline-ms <n>]
  valmod stats     [--addr <host:port>] [--raw]
  valmod check     [--smoke] [--seed <s>] [--cases <n>] [--probes <n>] [--no-faults]
                   [--no-recovery] [--no-cluster] [--no-planner] [--no-extend]
                   [--no-stress] [--stress-threads <t>]
  valmod bench     [--json] [--smoke] [--out <file>]
  valmod cluster-worker [--addr <host:port>]
  valmod cluster-run    --workers <h:p,h:p,...> --input <file> --min <len> --max <len>
                        [--top <k>] [--parts <n>] [--timeout-ms <n>] [--job <id>]
                        [--json] [--local]
  valmod help

Input: text (one value per line; `#` comments; commas/whitespace) or raw
little-endian f64 for `.bin`/`.f64` extensions.

--threads controls the worker count for the profile computations:
1 (default) is sequential, 0 uses every available core. Every count gives
byte-identical output.

`serve` keeps named series resident, answers repeated queries from an LRU
result cache, plans variable-length queries over a per-length fragment
cache (`--fragment-cache-mb`, 0 disables), coalesces identical concurrent
queries into one compute, and accepts live APPEND ingestion; `query` is
its client. Every MOTIFS and DISCORDS query, fixed-length or not, runs
through the planner. `--hot <l1,l2>` on a load pins each listed length's
single-length planner state outside the fragment budget, so a
fixed-length query after an append extends it instead of recomputing;
each length must fit the series (1 <= l < n). The store and both caches
are sharded into `--stripes` lock stripes (default 8) so requests for
unrelated series never contend on a shared lock.
With `--data-dir` the store is durable: loads write checksummed snapshots,
every append is WAL-logged (fsynced) before it applies, and a restart
recovers the directory — replaying the log over the latest snapshot and
truncating torn tails. `--cmd save` forces a snapshot flush.
`stats` renders a running server's metric registry — counters, gauges,
and latency histograms from every layer — in a human-readable table
(`--raw` prints the full STATS response verbatim instead).

`check` runs the seeded differential-correctness harness (valmod-check):
adversarial series through VALMOD-vs-STOMP, complete-vs-STOMP,
parallel-vs-sequential, extend-vs-batch, and serve cached-vs-cold
oracles, the Eq. 2 lower-bound admissibility invariant, a serve
fault-injection matrix, a crash-recovery kill-point matrix against the
durable store, and a query
planner matrix (fragment-composed and coalesced answers vs independent
cold computes; `--no-planner` skips it), and an incremental-extension
matrix (tail-extended profiles and lazily revived fragments vs cold
same-history replays under randomized append schedules; `--no-extend`
skips it), and a concurrent stress oracle
(seeded multi-threaded LOAD/APPEND/query/SAVE/STATS schedules replayed
against a cold single-threaded engine, asserting version monotonicity
and byte-identical replies; `--no-stress` skips it, `--stress-threads`
pins the client-thread count — 0 runs the 1-and-4-thread ladder).
`--smoke` is the CI preset; without it a longer sweep runs. Exits
non-zero on any divergence.

`cluster-worker` runs one stateless shard-compute worker; `cluster-run`
partitions the ℓmin..ℓmax sweep into (length x diagonal-range) shards,
dispatches them across the worker pool with health checks, per-shard
deadlines, and redispatch from dead workers, and merges the partials
bit-identically to a single-node run. `--local` computes the same job in
process — its `--json` body is byte-comparable with a distributed run's.

`bench` runs the pinned regression suite (the serve planner's
fragment-composed sweep vs cold recomputes, append-then-query extension
vs cold recomputes, and a mixed serve workload at 1 vs 4 client threads) and writes the snapshot to
BENCH_core.json (`--out` overrides).
`--smoke` shrinks every size for CI plumbing checks; `--json` echoes the
snapshot to stdout instead of the table.";

fn load(args: &Args) -> Result<Series, Box<dyn std::error::Error>> {
    Ok(io::load_auto(args.require("input")?)?)
}

fn range_config(args: &Args) -> Result<ValmodConfig, Box<dyn std::error::Error>> {
    let l_min: usize = args.require_parsed("min")?;
    let l_max: usize = args.require_parsed("max")?;
    let p: usize = args.parsed_or("p", 50)?;
    let threads: usize = args.parsed_or("threads", 1)?;
    Ok(ValmodConfig::new(l_min, l_max).with_p(p).with_threads(threads))
}

fn cmd_discover(args: &Args) -> CliResult {
    args.reject_unknown(&["input", "min", "max", "p", "top", "csv", "threads"])?;
    let series = load(args)?;
    let cfg = range_config(args)?;
    let top: usize = args.parsed_or("top", 5)?;
    let out = Valmod::from_config(cfg.clone()).run(&series)?;
    let motifs = top_variable_length_motifs(&out.valmp, top, cfg.policy);
    if args.switch("csv") {
        outln!("rank,offset_a,offset_b,length,dist,norm_dist");
        for (rank, m) in motifs.iter().enumerate() {
            outln!("{},{},{},{},{:.6},{:.6}", rank + 1, m.a, m.b, m.l, m.dist, m.norm_dist());
        }
    } else {
        outln!(
            "top {} variable-length motifs in [{}, {}] over {} points:",
            motifs.len(),
            cfg.l_min,
            cfg.l_max,
            series.len()
        );
        for (rank, m) in motifs.iter().enumerate() {
            outln!(
                "  #{:<2} offsets ({:>7}, {:>7})  length {:>5}  dist {:>9.4}  norm {:>8.4}",
                rank + 1,
                m.a,
                m.b,
                m.l,
                m.dist,
                m.norm_dist()
            );
        }
    }
    Ok(())
}

fn cmd_sets(args: &Args) -> CliResult {
    args.reject_unknown(&["input", "min", "max", "p", "k", "radius", "threads"])?;
    let series = load(args)?;
    let k: usize = args.parsed_or("k", 10)?;
    let radius: f64 = args.parsed_or("radius", 3.0)?;
    let cfg = range_config(args)?.with_pair_tracking(k);
    let out = Valmod::from_config(cfg.clone()).run(&series)?;
    let ps = ProfiledSeries::new(&series);
    let tracker = out.best_pairs.ok_or("motif sets need pair tracking; pass --k 1 or greater")?;
    let (sets, stats) = compute_var_length_motif_sets(&ps, &tracker, radius, cfg.policy);
    outln!(
        "{} motif sets (K={k}, D={radius}); {} expansions from snapshots, {} recomputed:",
        sets.len(),
        stats.served_from_snapshots,
        stats.recomputed_profiles
    );
    for (rank, set) in sets.iter().enumerate() {
        let mut offsets: Vec<usize> = set.members.iter().map(|m| m.offset).collect();
        offsets.sort_unstable();
        outln!(
            "  set #{:<2} length {:>5}  radius {:>8.4}  frequency {:>3}  offsets {:?}",
            rank + 1,
            set.l,
            set.radius,
            set.frequency(),
            offsets
        );
    }
    Ok(())
}

fn cmd_discords(args: &Args) -> CliResult {
    args.reject_unknown(&["input", "min", "max", "p", "top", "threads"])?;
    let series = load(args)?;
    let cfg = range_config(args)?;
    let top: usize = args.parsed_or("top", 3)?;
    let out = Valmod::from_config(cfg.clone()).run(&series)?;
    let discords = variable_length_discords(&out.valmp, top, cfg.policy);
    outln!("top {} variable-length discords in [{}, {}]:", discords.len(), cfg.l_min, cfg.l_max);
    for (rank, d) in discords.iter().enumerate() {
        outln!(
            "  #{:<2} offset {:>7}  best-match length {:>5}  nn {:>7}  score {:>8.4}",
            rank + 1,
            d.offset,
            d.l,
            d.nn,
            d.score
        );
    }
    Ok(())
}

fn cmd_mp(args: &Args) -> CliResult {
    args.reject_unknown(&["input", "length", "output", "threads"])?;
    let series = load(args)?;
    let l: usize = args.require_parsed("length")?;
    let threads: usize = args.parsed_or("threads", 1)?;
    let ps = ProfiledSeries::new(&series);
    let profile = stomp_parallel(&ps, l, ExclusionPolicy::HALF, threads)?;
    match args.get("output") {
        Some(path) => {
            use std::io::Write;
            let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
            writeln!(f, "offset,nn_dist,nn_offset")?;
            for i in 0..profile.len() {
                writeln!(f, "{},{:.6},{}", i, profile.mp[i], profile.ip[i] as i64)?;
            }
            outln!("matrix profile (length {l}) written to {path}");
        }
        None => {
            if let Some((a, b, d)) = profile.motif_pair() {
                outln!("motif pair at length {l}: offsets ({a}, {b}), dist {d:.4}");
            }
            if let Some((i, d)) = profile.discord() {
                outln!("discord  at length {l}: offset {i}, nn dist {d:.4}");
            }
        }
    }
    Ok(())
}

fn cmd_profiles(args: &Args) -> CliResult {
    args.reject_unknown(&["input", "min", "max", "p", "output"])?;
    let series = load(args)?;
    let cfg = range_config(args)?;
    let dir = std::path::PathBuf::from(args.require("output")?);
    std::fs::create_dir_all(&dir)?;
    let ps = ProfiledSeries::new(&series);
    let profiles = valmod_core::complete_profiles(&ps, &cfg)?;
    use std::io::Write;
    let (mut certified, mut recomputed) = (0, 0);
    for prof in &profiles {
        let path = dir.join(format!("mp_{}.csv", prof.l));
        let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
        writeln!(f, "offset,nn_dist,nn_offset")?;
        for i in 0..prof.mp.len() {
            writeln!(f, "{},{:.6},{}", i, prof.mp[i], prof.ip[i] as i64)?;
        }
        match prof.method {
            LengthMethod::SubMp | LengthMethod::SubMpRefined => {
                certified += prof.valid_rows;
                recomputed += prof.recomputed_rows;
            }
            LengthMethod::FullProfile | LengthMethod::Fallback => recomputed += prof.mp.len(),
        }
    }
    outln!(
        "wrote {} complete matrix profiles to {} ({} rows certified by the lower bound, {} recomputed)",
        profiles.len(),
        dir.display(),
        certified,
        recomputed
    );
    Ok(())
}

fn cmd_join(args: &Args) -> CliResult {
    args.reject_unknown(&["input", "other", "length", "top"])?;
    let a = load(args)?;
    let b = io::load_auto(args.require("other")?)?;
    let l: usize = args.require_parsed("length")?;
    let top: usize = args.parsed_or("top", 3)?;
    let pa = ProfiledSeries::new(&a);
    let pb = ProfiledSeries::new(&b);
    let join = valmod_mp::join::ab_join(&pa, &pb, l)?;
    let mut order: Vec<usize> = (0..join.len()).filter(|&i| join.mp[i].is_finite()).collect();
    order.sort_by(|&x, &y| join.mp[x].total_cmp(&join.mp[y]));
    outln!("top {} cross-series matches at length {l}:", top.min(order.len()));
    let mut printed = 0usize;
    let mut last: Option<usize> = None;
    for &i in &order {
        if printed >= top {
            break;
        }
        // Skip trivially adjacent rows so the list shows distinct regions.
        if let Some(prev) = last {
            if i.abs_diff(prev) < l / 2 {
                continue;
            }
        }
        outln!("  A offset {:>7} -> B offset {:>7}   dist {:>9.4}", i, join.ip[i], join.mp[i]);
        last = Some(i);
        printed += 1;
    }
    Ok(())
}

fn cmd_hint(args: &Args) -> CliResult {
    args.reject_unknown(&["input", "top", "min-period"])?;
    let series = load(args)?;
    let top: usize = args.parsed_or("top", 3)?;
    let min_period: usize = args.parsed_or("min-period", 8)?;
    let hints = valmod_core::suggest_length_ranges(series.values(), top, min_period, 0.15);
    if hints.is_empty() {
        outln!("no strong periodicities detected; try a wider search range manually");
        return Ok(());
    }
    outln!("suggested motif-length ranges (from autocorrelation peaks):");
    for h in &hints {
        outln!(
            "  period {:>6}  -> try --min {} --max {}   (strength {:.2})",
            h.period,
            h.l_min,
            h.l_max,
            h.strength
        );
    }
    Ok(())
}

fn cmd_serve(args: &Args) -> CliResult {
    args.reject_unknown(&[
        "addr",
        "workers",
        "queue",
        "cache-mb",
        "fragment-cache-mb",
        "threads",
        "stripes",
        "data-dir",
    ])?;
    let addr = args.get("addr").unwrap_or("127.0.0.1:7700");
    let mut builder = EngineConfig::builder()
        .workers(args.parsed_or("workers", 2)?)
        .queue_depth(args.parsed_or("queue", 32)?)
        .cache_bytes(args.parsed_or::<usize>("cache-mb", 16)? << 20)
        .fragment_cache_bytes(args.parsed_or::<usize>("fragment-cache-mb", 16)? << 20)
        .kernel_threads(args.parsed_or("threads", 1)?)
        .stripes(args.parsed_or("stripes", valmod_serve::DEFAULT_STRIPES)?);
    if let Some(dir) = args.get("data-dir") {
        builder = builder.data_dir(dir);
    }
    let cfg = builder.build()?;
    let data_dir = cfg.data_dir.clone();
    let server = Server::bind(addr, QueryEngine::open(cfg)?)?;
    // Tests and scripts parse this line to learn the ephemeral port; it
    // must stay the first line printed.
    outln!("listening on {}", server.local_addr()?);
    if let Some(dir) = &data_dir {
        outln!("data dir: {} (snapshots + WAL recovery enabled)", dir.display());
    }
    server.run()?;
    outln!("server stopped");
    Ok(())
}

fn cmd_query(args: &Args) -> CliResult {
    args.reject_unknown(&[
        "addr",
        "cmd",
        "name",
        "input",
        "hot",
        "replace",
        "min",
        "max",
        "p",
        "top",
        "k",
        "radius",
        "deadline-ms",
    ])?;
    let addr = args.get("addr").unwrap_or("127.0.0.1:7700");
    let mut client = Client::connect(addr)?;
    match args.get("cmd").unwrap_or("stats") {
        "load" => {
            let name = args.require("name")?;
            let values = load(args)?.values().to_vec();
            let hot = parse_hot_lengths(args)?;
            let ack = client.load(name, values, hot, args.switch("replace"))?;
            outln!("loaded {name}: version {}, {} points", ack.version, ack.len);
        }
        "append" => {
            let name = args.require("name")?;
            let values = load(args)?.values().to_vec();
            let ack = client.append(name, values)?;
            outln!("appended to {name}: version {}, {} points", ack.version, ack.len);
        }
        cmd @ ("motifs" | "sets" | "discords") => {
            let kind = match cmd {
                "motifs" => QueryKind::Motifs { top: args.parsed_or("top", 5)? },
                "sets" => QueryKind::Sets {
                    k: args.parsed_or("k", 10)?,
                    radius: args.parsed_or("radius", 3.0)?,
                },
                _ => QueryKind::Discords { top: args.parsed_or("top", 3)? },
            };
            let deadline = match args.get("deadline-ms") {
                None => None,
                Some(_) => Some(std::time::Duration::from_millis(
                    args.require_parsed::<u64>("deadline-ms")?,
                )),
            };
            let spec = QuerySpec {
                series: args.require("name")?.to_string(),
                kind,
                l_min: args.require_parsed("min")?,
                l_max: args.require_parsed("max")?,
                p: args.parsed_or("p", 50)?,
                policy: ExclusionPolicy::HALF,
                deadline,
            };
            let resp = client.query(spec)?;
            outln!("cached: {}", resp.cached.unwrap_or(false));
            if resp.coalesced {
                outln!("coalesced: true");
            }
            outln!("{}", resp.result.encode());
        }
        "stats" => outln!("{}", client.stats()?.encode()),
        "ping" => {
            client.ping()?;
            outln!("pong");
        }
        "save" => {
            let saved = client.save()?;
            outln!("saved {} snapshot(s)", saved.snapshots);
        }
        "shutdown" => {
            client.shutdown()?;
            outln!("server shutting down");
        }
        other => {
            return Err(format!(
            "unknown --cmd {other:?} (load|append|motifs|sets|discords|stats|ping|save|shutdown)"
        )
            .into())
        }
    }
    Ok(())
}

/// `valmod stats`: the observability view. Fetches STATS from a running
/// server and renders the engine counters plus the metric registry (the
/// "obs" section the observability layer threads through the stack) as a
/// readable table instead of a single JSON line.
fn cmd_stats(args: &Args) -> CliResult {
    args.reject_unknown(&["addr", "raw"])?;
    let addr = args.get("addr").unwrap_or("127.0.0.1:7700");
    let mut client = Client::connect(addr)?;
    let stats = client.stats()?;
    if args.switch("raw") {
        outln!("{}", stats.encode());
        return Ok(());
    }
    if let Some(engine) = stats.get("engine") {
        let n = |key: &str| engine.get(key).and_then(WireValue::as_usize).unwrap_or(0);
        outln!(
            "engine: {} queries ({} computed), {} busy, {} deadline misses",
            n("queries"),
            n("computed"),
            n("busy_rejections"),
            n("deadline_misses")
        );
    }
    if let Some(cache) = stats.get("cache") {
        let n = |key: &str| cache.get(key).and_then(WireValue::as_usize).unwrap_or(0);
        outln!(
            "cache:  {} entries, {}/{} bytes, {} hits / {} misses, {} evicted, {} invalidated",
            n("entries"),
            n("used_bytes"),
            n("budget_bytes"),
            n("hits"),
            n("misses"),
            n("evictions"),
            n("invalidated")
        );
    }
    if let Some(series) = stats.get("series").and_then(WireValue::as_arr) {
        for s in series {
            outln!(
                "series: {} ({} points, version {})",
                s.get("name").and_then(WireValue::as_str).unwrap_or("?"),
                s.get("len").and_then(WireValue::as_usize).unwrap_or(0),
                s.get("version").and_then(WireValue::as_usize).unwrap_or(0)
            );
        }
    }
    let Some(obs) = stats.get("obs").and_then(WireValue::as_obj) else {
        outln!("(server reported no metric registry)");
        return Ok(());
    };
    outln!("\nmetrics ({}):", obs.len());
    for (key, metric) in obs {
        match metric {
            v if v.as_f64().is_some() => {
                outln!("  {key:<28} {}", format_number(v.as_f64().unwrap()));
            }
            v => {
                let count = v.get("count").and_then(WireValue::as_usize).unwrap_or(0);
                let field = |name: &str| {
                    v.get(name)
                        .and_then(WireValue::as_f64)
                        .map_or_else(|| "-".to_string(), format_number)
                };
                outln!(
                    "  {key:<28} count {count:<8} mean {:<12} p50 {:<12} p99 {}",
                    field("mean"),
                    field("p50"),
                    field("p99")
                );
            }
        }
    }
    Ok(())
}

/// `valmod check`: the differential-correctness harness. Runs seeded
/// adversarial cases through every oracle pair plus the serve fault matrix
/// and exits non-zero on any divergence — the CI smoke tier invokes
/// `valmod check --smoke --seed 42`.
fn cmd_check(args: &Args) -> CliResult {
    args.reject_unknown(&[
        "smoke",
        "seed",
        "cases",
        "probes",
        "no-faults",
        "no-recovery",
        "no-cluster",
        "no-planner",
        "no-extend",
        "no-stress",
        "stress-threads",
    ])?;
    let seed: u64 = args.parsed_or("seed", 42)?;
    let mut config = valmod_check::CheckConfig::smoke(seed);
    if !args.switch("smoke") {
        // The longer sweep for local bug hunts.
        config.cases = 640;
        config.lb_probes_per_case = 48;
    }
    config.cases = args.parsed_or("cases", config.cases)?;
    config.lb_probes_per_case = args.parsed_or("probes", config.lb_probes_per_case)?;
    if args.switch("no-faults") {
        config.run_faults = false;
    }
    if args.switch("no-recovery") {
        config.run_recovery = false;
    }
    if args.switch("no-cluster") {
        config.run_cluster = false;
    }
    if args.switch("no-planner") {
        config.run_planner = false;
    }
    if args.switch("no-extend") {
        config.run_extend = false;
    }
    if args.switch("no-stress") {
        config.run_stress = false;
    }
    config.stress_threads = args.parsed_or("stress-threads", config.stress_threads)?;
    let report = valmod_check::run(&config);
    outln!("{report}");
    if report.clean() {
        Ok(())
    } else {
        Err("correctness check found divergences".into())
    }
}

/// `valmod bench`: the pinned bench-regression suite guarding the
/// diagonal-blocked kernel. Times the pre-rewrite row kernel and the
/// current kernels over identical inputs in the same run, writes the
/// `BENCH_core.json` snapshot, and self-validates the emitted JSON through
/// the serve-layer wire parser before reporting success.
fn cmd_bench(args: &Args) -> CliResult {
    args.reject_unknown(&["json", "smoke", "out"])?;
    let smoke = args.switch("smoke");
    let out = args.get("out").unwrap_or("BENCH_core.json");
    let report = valmod_bench::run_suite(smoke);
    let json = report.to_json();
    // A malformed snapshot must fail the run, not poison the baseline.
    WireValue::parse(&json).map_err(|e| format!("emitted JSON failed self-validation: {e}"))?;
    std::fs::write(out, &json)?;
    if args.switch("json") {
        outln!("{json}");
    } else {
        out!("{}", report.table());
        outln!("snapshot written to {out}");
    }
    Ok(())
}

/// `valmod cluster-worker`: one stateless shard-compute worker. The
/// coordinator ships the series with `load_job`, so a worker needs no
/// input of its own and can be pointed at any job.
fn cmd_cluster_worker(args: &Args) -> CliResult {
    args.reject_unknown(&["addr"])?;
    let addr = args.get("addr").unwrap_or("127.0.0.1:0");
    let worker = valmod_cluster::Worker::bind(
        addr,
        valmod_cluster::WorkerConfig::default(),
        valmod_obs::SharedRecorder::from(valmod_obs::Registry::new()),
    )?;
    // Tests and scripts parse this line to learn the ephemeral port; it
    // must stay the first line printed.
    outln!("listening on {}", worker.local_addr()?);
    worker.run()?;
    outln!("worker stopped");
    Ok(())
}

/// `valmod cluster-run`: the coordinator. Builds the (length x
/// diagonal-range) partition plan, dispatches shards across the pool, and
/// merges partials bit-identically to a local run. `--local` executes the
/// same job in process, so its `--json` body is the byte-for-byte oracle
/// a distributed body is diffed against.
fn cmd_cluster_run(args: &Args) -> CliResult {
    args.reject_unknown(&[
        "workers",
        "input",
        "min",
        "max",
        "top",
        "parts",
        "timeout-ms",
        "job",
        "json",
        "local",
    ])?;
    let series = load(args)?;
    let mut spec = valmod_cluster::JobSpec::new(
        args.get("job").unwrap_or("cli"),
        series.values().to_vec(),
        args.require_parsed("min")?,
        args.require_parsed("max")?,
    );
    spec.top = args.parsed_or("top", 5)?;
    let parts: usize = args.parsed_or("parts", 0)?;

    let registry = valmod_obs::Registry::new();
    let recorder = valmod_obs::SharedRecorder::from(registry.clone());
    let output = if args.switch("local") {
        valmod_cluster::run_local(&spec, parts.max(1), &recorder)?
    } else {
        let workers: Vec<String> = args
            .require("workers")?
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect();
        let cfg = valmod_cluster::CoordinatorConfig {
            parts_per_length: parts,
            shard_timeout: std::time::Duration::from_millis(args.parsed_or("timeout-ms", 60_000)?),
            ..valmod_cluster::CoordinatorConfig::default()
        };
        let run = valmod_cluster::run_distributed(&spec, &workers, &cfg, &recorder)?;
        // Worker accounting goes to stderr so `--json` stdout stays a pure
        // body that can be byte-diffed against a `--local` run.
        for report in &run.workers {
            if let Some(reason) = &report.rejected {
                eprintln!("worker {}: rejected ({reason})", report.addr);
            } else {
                eprintln!(
                    "worker {}: {} shard(s){}",
                    report.addr,
                    report.shards_done,
                    if report.died { ", died mid-job" } else { "" }
                );
            }
        }
        let snap = registry.snapshot();
        let counter = |key: &str| snap.counter(key).unwrap_or(0);
        eprintln!(
            "shards: {} dispatched, {} retried, {} redispatched",
            counter("cluster.shards.dispatched"),
            counter("cluster.shards.retried"),
            counter("cluster.shards.redispatched")
        );
        run.output
    };

    if args.switch("json") {
        outln!("{}", output.body().encode());
        return Ok(());
    }
    outln!(
        "merged {} per-length profiles over {} points (lengths {}..={})",
        output.profiles.len(),
        output.n,
        output.l_min,
        output.l_max
    );
    for (rank, m) in output.motifs.iter().enumerate() {
        outln!(
            "  #{:<2} offsets ({:>7}, {:>7})  length {:>5}  dist {:>9.4}  norm {:>8.4}",
            rank + 1,
            m.a,
            m.b,
            m.l,
            m.dist,
            m.norm_dist()
        );
    }
    Ok(())
}

/// Compact numeric formatting: integers stay integral, everything else
/// gets two decimals — keeps the metric table scannable.
fn format_number(n: f64) -> String {
    if n.fract() == 0.0 && n.abs() < 2f64.powi(53) {
        format!("{n}")
    } else {
        format!("{n:.2}")
    }
}

fn parse_hot_lengths(args: &Args) -> Result<Vec<usize>, Box<dyn std::error::Error>> {
    let Some(raw) = args.get("hot") else { return Ok(Vec::new()) };
    raw.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.parse::<usize>()
                .map_err(|_| ArgError(format!("cannot parse --hot value {raw:?}")).into())
        })
        .collect()
}

fn cmd_generate(args: &Args) -> CliResult {
    args.reject_unknown(&["dataset", "n", "seed", "output"])?;
    let name = args.require("dataset")?.to_ascii_uppercase();
    let ds = Dataset::ALL
        .into_iter()
        .find(|d| d.name() == name)
        .ok_or_else(|| ArgError(format!("unknown dataset {name:?} (ecg|emg|gap|astro|eeg)")))?;
    let n: usize = args.require_parsed("n")?;
    let seed: u64 = args.parsed_or("seed", 1)?;
    let output = args.require("output")?;
    let series = ds.generate(n, seed);
    if output.ends_with(".bin") || output.ends_with(".f64") {
        io::save_binary(&series, output)?;
    } else {
        io::save_text(&series, output)?;
    }
    let s = series.summary();
    outln!(
        "wrote {} points of {} to {output} (mean {:.4}, std {:.4})",
        s.len,
        ds.name(),
        s.mean,
        s.std_dev
    );
    Ok(())
}
