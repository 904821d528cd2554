//! Incremental APPEND at the shipped engine defaults: no budget override,
//! the paper's `p = 50`, a 2048-point ECG-like series. The parked segment
//! state must fit a default stripe's fragment-cache share, so every
//! post-append query extends it instead of recomputing its anchor — and
//! answers byte-identically to a cold engine replaying the same history.
//! Both hold at one and at two kernel threads; the cold engine runs one.
//!
//! Run with `--release` for speed; the debug build takes about a minute.

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
