//! Incremental APPEND at the shipped engine defaults: no budget override,
//! the paper's `p = 50`, a 2048-point ECG-like series. The parked segment
//! state must fit a default stripe's fragment-cache share, so every
//! post-append query extends it instead of recomputing its anchor — and
//! answers byte-identically to a cold engine replaying the same history.
//! Both hold at one and at two kernel threads; the cold engine runs one.
//!
//! The second scenario pins a hot length on an 8000-point series whose
//! range states do not fit a stripe.
//!
//! Run with `--release` for speed; the debug build takes a few minutes.

use std::time::Duration;

use valmod_data::datasets::ecg_like;
use valmod_mp::ExclusionPolicy;
use valmod_serve::engine::{EngineConfig, QueryEngine, QueryKind, QuerySpec};
use valmod_serve::Value;

const BASE: usize = 2048;
const BATCH: usize = 16;
const BATCHES: usize = 4;

fn motifs() -> QuerySpec {
    QuerySpec {
        series: "ecg".into(),
        kind: QueryKind::Motifs { top: 3 },
        l_min: 64,
        l_max: 80,
        p: 50,
        policy: ExclusionPolicy::HALF,
        // Generous so unoptimised builds finish; not an engine budget.
        deadline: Some(Duration::from_secs(600)),
    }
}

fn body(engine: &QueryEngine) -> String {
    let out = engine.query(motifs()).expect("query answers");
    out.payload.get("body").map(Value::encode).expect("payload has a body")
}

fn planner(engine: &QueryEngine, key: &str) -> usize {
    engine.stats().get("planner").and_then(|p| p.get(key)).and_then(Value::as_usize).unwrap()
}

/// A zero-cache engine replaying `history` (LOAD, then each APPEND).
fn cold_body(history: &[&[f64]]) -> String {
    let engine = QueryEngine::new(
        EngineConfig::builder().cache_bytes(0).fragment_cache_bytes(0).build().unwrap(),
    );
    engine.load("ecg", history[0].to_vec(), &[], ExclusionPolicy::HALF, false).unwrap();
    for batch in &history[1..] {
        engine.append("ecg", batch).unwrap();
    }
    let body = body(&engine);
    engine.shutdown();
    engine.join();
    body
}

#[test]
fn appends_extend_the_parked_state_at_shipped_defaults() {
    let values = ecg_like(BASE + BATCHES * BATCH, 7).into_values();
    let batch = |k: usize| &values[BASE + k * BATCH..BASE + (k + 1) * BATCH];
    let history = |appends: usize| -> Vec<&[f64]> {
        std::iter::once(&values[..BASE]).chain((0..appends).map(batch)).collect()
    };
    let colds: Vec<String> = (0..=BATCHES).map(|k| cold_body(&history(k))).collect();
    for kernel_threads in [1usize, 2] {
        let what = format!("kernel_threads={kernel_threads}");
        let engine = QueryEngine::new(
            EngineConfig::builder().kernel_threads(kernel_threads).build().unwrap(),
        );
        engine.load("ecg", values[..BASE].to_vec(), &[], ExclusionPolicy::HALF, false).unwrap();
        assert_eq!(body(&engine), colds[0], "{what}: cold LOAD answer");
        assert_eq!(planner(&engine, "parked_states"), 1, "{what}: the fresh state fits");
        assert_eq!(planner(&engine, "parked_proven"), 0, "{what}: a fresh capture is speculative");

        for k in 0..BATCHES {
            engine.append("ecg", batch(k)).unwrap();
            assert_eq!(body(&engine), colds[k + 1], "{what}: after append {}", k + 1);
            assert_eq!(planner(&engine, "fragments_extended"), k + 1, "{what}: append {}", k + 1);
        }
        assert_eq!(planner(&engine, "fragments_extended"), BATCHES, "{what}");
        assert_eq!(planner(&engine, "parked_states"), 1, "{what}");
        assert_eq!(planner(&engine, "parked_proven"), 1, "{what}: an extended state is proven");
        assert_eq!(planner(&engine, "states_refused"), 0, "{what}");
        let parked = planner(&engine, "parked_bytes");
        let stripes =
            engine.stats().get("engine").and_then(|e| e.get("stripes")).and_then(Value::as_usize);
        let share = planner(&engine, "fragment_budget_bytes") / stripes.unwrap();
        assert!(parked < share, "{what}: {parked} parked bytes must fit a {share}-byte share");
        engine.shutdown();
        engine.join();
    }
}

/// The hot-length scenario at the shipped defaults: an 8000-point ECG
/// loaded with hot length 96. A full range state there is larger than a
/// stripe's fragment share and is refused, but the hot length's pinned
/// single-length state (about 24 bytes per row) sits outside the budget.
mod hot_length {
    use super::*;

    const N: usize = 8000;
    const HOT: usize = 96;

    fn spec(l_min: usize, l_max: usize, p: usize) -> QuerySpec {
        QuerySpec { l_min, l_max, p, ..motifs() }
    }

    fn answer(engine: &QueryEngine, spec: QuerySpec) -> String {
        let out = engine.query(spec).expect("query answers");
        out.payload.get("body").map(Value::encode).expect("payload has a body")
    }

    fn obs(engine: &QueryEngine, key: &str) -> usize {
        engine.stats().get("obs").and_then(|o| o.get(key)).and_then(Value::as_usize).unwrap_or(0)
    }

    /// Segments computed by a cold run: not reused, not revived.
    fn cold_segments(engine: &QueryEngine) -> usize {
        obs(engine, "serve.planner.segments_computed")
            - obs(engine, "serve.planner.segments_revived")
    }

    /// Cold answers to `specs` from a zero-cache engine loaded without hot
    /// lengths that replays `history`.
    fn cold(history: &[&[f64]], specs: &[QuerySpec]) -> Vec<String> {
        let engine = QueryEngine::new(
            EngineConfig::builder().cache_bytes(0).fragment_cache_bytes(0).build().unwrap(),
        );
        engine.load("ecg", history[0].to_vec(), &[], ExclusionPolicy::HALF, false).unwrap();
        for batch in &history[1..] {
            engine.append("ecg", batch).unwrap();
        }
        let bodies = specs.iter().map(|s| answer(&engine, s.clone())).collect();
        engine.shutdown();
        engine.join();
        bodies
    }

    #[test]
    fn the_pinned_state_extends_where_range_states_are_refused() {
        let values = ecg_like(N + BATCHES * BATCH, 11).into_values();
        let batch = |k: usize| &values[N + k * BATCH..N + (k + 1) * BATCH];
        let (fixed, range) = (spec(HOT, HOT, 50), spec(HOT, HOT + 14, 50));
        let engine = QueryEngine::new(EngineConfig::builder().kernel_threads(2).build().unwrap());
        engine.load("ecg", values[..N].to_vec(), &[HOT], ExclusionPolicy::HALF, false).unwrap();
        let mut history: Vec<&[f64]> = vec![&values[..N]];
        assert_eq!(answer(&engine, fixed.clone()), cold(&history, std::slice::from_ref(&fixed))[0]);
        assert_eq!(planner(&engine, "pinned_states"), 1);
        let pinned = planner(&engine, "pinned_bytes");
        assert!(pinned < 25 * N, "{pinned} pinned bytes for {N} rows");

        // Cold range queries at other anchors churn the stripe's whole
        // fragment share: the pinned state stays, and the next fixed-length
        // query (a DISCORDS, so the result cache cannot answer it) rebuilds
        // its evicted fragment from the state without a segment.
        let evictions = planner(&engine, "fragment_evictions");
        for lo in (98..130).step_by(4) {
            answer(&engine, spec(lo, lo + 3, 8));
        }
        assert!(planner(&engine, "fragment_evictions") >= evictions + 8);
        assert_eq!(planner(&engine, "pinned_states"), 1, "the pin survives the churn");
        let cold_runs = cold_segments(&engine);
        answer(&engine, QuerySpec { kind: QueryKind::Discords { top: 3 }, ..fixed.clone() });
        assert_eq!(obs(&engine, "serve.planner.segments_revived"), 1, "replayed, not cached");
        assert_eq!(cold_segments(&engine), cold_runs);

        // After each APPEND the fixed-length query extends the pinned state
        // and computes nothing; the range query beside it cannot park its
        // state and recomputes. Both answer like a cold same-history replay.
        for k in 0..BATCHES {
            engine.append("ecg", batch(k)).unwrap();
            history.push(batch(k));
            let colds = cold(&history, &[fixed.clone(), range.clone()]);
            let cold_runs = cold_segments(&engine);
            assert_eq!(answer(&engine, fixed.clone()), colds[0], "fixed after append {}", k + 1);
            assert_eq!(cold_segments(&engine), cold_runs);
            assert_eq!(planner(&engine, "fragments_extended"), k + 1, "append {}", k + 1);
            assert_eq!(answer(&engine, range.clone()), colds[1], "range after append {}", k + 1);
        }
        assert!(planner(&engine, "states_refused") >= BATCHES, "range states do not fit");
        assert_eq!(planner(&engine, "pinned_states"), 1);
        assert!(planner(&engine, "pinned_bytes") > pinned, "the pin grew with the series");
        engine.shutdown();
        engine.join();
    }
}
