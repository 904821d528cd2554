//! `valmod-perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload (or each in turn) from the root of a checkout of the
//! repository and prints its metrics; the last line of a workload's output
//! is its result object. See `README.md` in this directory.

use std::time::Duration;

use valmod_perfbench::report::Json;
use valmod_perfbench::{run, sys, RunContext, Workload};

const USAGE: &str =
    "usage: valmod-perfbench --workload <discover_ecg|discover_emg|serve_explore|serve_ingest|all> \
--seed <n> --seconds <s> --trace <0|1>";

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

fn parse_args() -> Result<(Vec<Workload>, RunContext), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Option<String> {
        let i = args.iter().position(|a| a == key)?;
        args.get(i + 1).cloned()
    };
    let workloads = match get("--workload").ok_or("missing --workload")?.as_str() {
        "all" => Workload::ALL.to_vec(),
        name => vec![Workload::parse(name).ok_or(format!("unknown workload {name}"))?],
    };
    let seed = get("--seed").ok_or("missing --seed")?.parse::<u64>().map_err(|e| e.to_string())?;
    let seconds = get("--seconds").ok_or("missing --seconds")?;
    let seconds = seconds.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err("--seconds must be in (0, 3600]".into());
    }
    let trace = match get("--trace").as_deref() {
        Some("0") | None => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    // Built up front for every workload, so the first run in a checkout
    // pays for all builds and later runs only check freshness.
    let server = sys::build_server(&root)?;
    let seconds = Duration::from_secs_f64(seconds);
    Ok((workloads, RunContext { seed, seconds, trace, root, setups: SETUPS, server }))
}

fn main() {
    let (workloads, ctx) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    for workload in workloads {
        if let Err(e) = run_and_print(workload, &ctx) {
            eprintln!("error: {} failed: {e}", workload.name());
            std::process::exit(1);
        }
    }
}

/// Runs one workload and prints its metric lines, record and result line.
fn run_and_print(workload: Workload, ctx: &RunContext) -> Result<(), String> {
    let probe_before = sys::host_probe_ms();
    let outcome = run(workload, ctx)?;
    for (def, value) in outcome.result_metrics(ctx.trace) {
        println!("{:<14} {:<28} {:>14.4} {}", workload.name(), def.name, value, def.unit);
    }
    let mut record = vec![
        ("workload".to_string(), Json::from(workload.name())),
        ("seed".to_string(), ctx.seed.into()),
        ("seconds".to_string(), ctx.seconds.as_secs_f64().into()),
        ("trace".to_string(), ctx.trace.into()),
        ("setups".to_string(), ctx.setups.into()),
        ("nproc".to_string(), sys::nproc().into()),
        ("commit".to_string(), sys::commit(&ctx.root).map_or(Json::Null, Json::from)),
        ("source_digest".to_string(), sys::source_digest(&ctx.root).into()),
        ("attempted".to_string(), outcome.attempted.into()),
        ("failed".to_string(), outcome.failed.into()),
        ("wrong".to_string(), outcome.wrong.into()),
        (
            "host_probe_ms".to_string(),
            Json::Arr(vec![probe_before.into(), sys::host_probe_ms().into()]),
        ),
    ];
    record.extend(outcome.record().iter().cloned());
    if ctx.trace {
        let skipped = outcome.not_exercised().into_iter().map(Json::from).collect();
        record.push(("not_exercised".to_string(), Json::Arr(skipped)));
    }
    println!("{}", Json::obj([("record", Json::Obj(record))]).encode());
    println!("{}", outcome.result_line(ctx.trace));
    Ok(())
}
