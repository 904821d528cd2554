//! Scaled-down runs of every workload, and the re-drive's bit-identity.
//!
//! The serve tests build the `valmod` binary from the enclosing workspace
//! on first use.

use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Duration;

use valmod_core::LengthMethod;
use valmod_data::generators::{random_walk, sine_mixture};
use valmod_data::series::Series;
use valmod_perfbench::report::{Outcome, END_TO_END, PER_LAYER};
use valmod_perfbench::{discover, explore, ingest, sys, RunContext};

fn ctx(seconds: f64, trace: bool) -> RunContext {
    static SERVER: OnceLock<PathBuf> = OnceLock::new();
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
    let server = SERVER.get_or_init(|| sys::build_server(&root).expect("build valmod")).clone();
    RunContext {
        seed: 3,
        seconds: Duration::from_secs_f64(seconds),
        trace,
        root,
        setups: 2,
        server,
    }
}

/// Every metric of the run kind appears in the result line, with its unit,
/// and every operation was checked and right.
fn assert_complete(outcome: &Outcome, trace: bool) {
    assert!(outcome.attempted >= 1, "no operation was attempted");
    assert_eq!(outcome.failed, 0, "failed operations");
    assert!(outcome.correct());
    let line = outcome.result_line(trace);
    for d in if trace { PER_LAYER } else { END_TO_END } {
        let prefix = format!("\"{}\": {{\"value\": ", d.name);
        let at = line.find(&prefix).unwrap_or_else(|| panic!("{} missing from {line}", d.name));
        let rest = &line[at + prefix.len()..];
        let (value, unit) = rest.split_once(", \"unit\": ").expect("value then unit");
        assert!(value.parse::<f64>().is_ok(), "{} is not a number: {value}", d.name);
        assert!(unit.starts_with(&format!("\"{}\"}}", d.unit)), "{} has the wrong unit", d.name);
    }
    if !trace {
        for d in END_TO_END {
            let v = outcome.get(d.name).expect("end-to-end metric set");
            assert!(v.is_finite() && v > 0.0, "{} = {v}", d.name);
        }
    }
}

fn small_discover(dataset: &'static str) -> discover::Params {
    discover::Params { dataset, n: 512, l_min: 24, l_max: 40, p: 10, seed: 3 }
}

#[test]
fn redrive_is_bit_identical_to_valmod_run() {
    // Random walk plus a noisy sine tail with a small `p` reaches every
    // resolution path: sub-MP, refined sub-MP and the full-profile fallback.
    let mut values = random_walk(600, 1);
    values.extend_from_slice(&sine_mixture(200, &[(0.1, 3.0)], 0.4, 2));
    let mixed = Series::new(values).unwrap();
    let mixed_params =
        discover::Params { dataset: "ecg", n: 800, l_min: 16, l_max: 48, p: 8, seed: 0 };
    let cases = [
        (mixed_params.clone(), mixed),
        (small_discover("ecg"), small_discover("ecg").series()),
        (small_discover("emg"), small_discover("emg").series()),
    ];
    let methods: Vec<LengthMethod> =
        cases[0].0.job(&cases[0].1).unwrap().per_length.iter().map(|r| r.method).collect();
    for m in [
        LengthMethod::FullProfile,
        LengthMethod::SubMp,
        LengthMethod::SubMpRefined,
        LengthMethod::Fallback,
    ] {
        assert!(methods.contains(&m), "{m:?} is not reached");
    }
    for (params, series) in cases {
        let job = params.job(&series).unwrap();
        let (redriven, times) = discover::redrive(&params, &series).unwrap();
        assert!(discover::same_output(&job, &redriven), "{} re-drive differs", params.dataset);
        assert!(!times.compute_mp_lengths.is_empty());
        assert_eq!(times.sub_mp_calls, params.l_max - params.l_min);
        assert!(times.untraced() <= times.wall);
    }
}

#[test]
fn same_output_notices_a_changed_bit() {
    let params = small_discover("ecg");
    let series = params.series();
    let a = params.job(&series).unwrap();
    let mut b = a.clone();
    b.valmp.norm_distances[7] = f64::from_bits(b.valmp.norm_distances[7].to_bits() ^ 1);
    assert!(discover::same_output(&a, &a.clone()));
    assert!(!discover::same_output(&a, &b));
}

#[test]
fn discover_checks_catch_a_wrong_distance() {
    let params = small_discover("ecg");
    let series = params.series();
    let stomp = discover::stomp_reference(&params, &series).unwrap();
    let mut out = params.job(&series).unwrap();
    discover::check_output(&params, &series, &out, &stomp).unwrap();
    let motif = out.per_length[3].motif.as_mut().unwrap();
    motif.dist *= 1.001;
    assert!(discover::check_output(&params, &series, &out, &stomp).is_err());
}

#[test]
fn discover_small_runs_emit_every_metric() {
    for dataset in ["ecg", "emg"] {
        for trace in [false, true] {
            let outcome = discover::run(&small_discover(dataset), &ctx(0.3, trace)).unwrap();
            assert_complete(&outcome, trace);
        }
    }
}

#[test]
fn serve_explore_small_runs_emit_every_metric() {
    let params = explore::Params { n: 512, ..explore::Params::full(3) };
    for trace in [false, true] {
        let outcome = explore::run(&params, &ctx(0.5, trace)).unwrap();
        assert_complete(&outcome, trace);
    }
}

#[test]
fn serve_ingest_small_runs_emit_every_metric() {
    let params = ingest::Params { n: 512, rate: 20.0, ..ingest::Params::full(3) };
    for trace in [false, true] {
        let outcome = ingest::run(&params, &ctx(0.5, trace)).unwrap();
        assert_complete(&outcome, trace);
    }
}

#[test]
fn explore_streams_are_deterministic_and_keep_their_modes() {
    let params = explore::Params::full(11);
    let take = |c| {
        let mut s = explore::Stream::new(&params, c);
        (0..2000).map(|_| s.next_request()).collect::<Vec<_>>()
    };
    let a = take(0);
    assert_eq!(a, take(0));
    assert_ne!(a, take(1));
    let hot = explore::Stream::new(&params, 0).hot().to_vec();
    let mut seen = std::collections::HashSet::new();
    for (key, mode) in &a {
        match mode {
            explore::Mode::Hit => assert!(hot.contains(key)),
            // Fresh keys never repeat, so they can never hit the result cache.
            _ => assert!(seen.insert(*key) && !hot.contains(key), "{key:?} repeats"),
        }
    }
    let names = explore::series_names();
    assert_ne!(
        valmod_serve::stripe_of(&names[0], valmod_serve::DEFAULT_STRIPES),
        valmod_serve::stripe_of(&names[1], valmod_serve::DEFAULT_STRIPES)
    );
}

#[test]
fn benchmark_json_lists_exactly_the_emitted_metrics() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let json = valmod_serve::Value::parse(text.trim()).expect("BENCHMARK.json parses");
    let listed = |key: &str| -> Vec<(String, String)> {
        json.get(key)
            .and_then(|v| v.as_arr())
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(|v| v.as_str()).expect(f).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let ours = |defs: &[valmod_perfbench::report::MetricDef]| -> Vec<(String, String)> {
        defs.iter().map(|d| (d.name.to_string(), d.unit.to_string())).collect()
    };
    assert_eq!(listed("end_to_end"), ours(END_TO_END));
    assert_eq!(listed("per_layer"), ours(PER_LAYER));
    let workloads: Vec<String> = json
        .get("workloads")
        .and_then(|v| v.as_arr())
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(|n| n.as_str()).expect("name").to_string())
        .collect();
    let ours: Vec<String> =
        valmod_perfbench::Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
}
