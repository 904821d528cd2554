//! Incremental APPEND at the shipped engine defaults: no budget override,
//! the paper's `p = 50`, a 2048-point ECG-like series. The parked segment
//! state must fit a default stripe's fragment-cache share, so every
//! post-append query extends it instead of recomputing its anchor — and
//! answers byte-identically to a cold engine replaying the same history.
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
    let engine = QueryEngine::new(EngineConfig::builder().build().unwrap());
    engine.load("ecg", values[..BASE].to_vec(), &[], ExclusionPolicy::HALF, false).unwrap();
    let mut history: Vec<&[f64]> = vec![&values[..BASE]];
    assert_eq!(body(&engine), cold_body(&history), "cold LOAD answer");
    assert_eq!(planner(&engine, "parked_states"), 1, "the fresh state fits the free share");
    assert_eq!(planner(&engine, "parked_proven"), 0, "a fresh capture is speculative");

    for k in 0..BATCHES {
        let batch = &values[BASE + k * BATCH..BASE + (k + 1) * BATCH];
        engine.append("ecg", batch).unwrap();
        history.push(batch);
        assert_eq!(body(&engine), cold_body(&history), "after append {}", k + 1);
        assert_eq!(planner(&engine, "fragments_extended"), k + 1, "append {} extended", k + 1);
    }
    assert_eq!(planner(&engine, "fragments_extended"), BATCHES);
    assert_eq!(planner(&engine, "parked_states"), 1);
    assert_eq!(planner(&engine, "parked_proven"), 1, "an extended state is proven");
    assert_eq!(planner(&engine, "states_refused"), 0);
    let parked = planner(&engine, "parked_bytes");
    let stripes =
        engine.stats().get("engine").and_then(|e| e.get("stripes")).and_then(Value::as_usize);
    let share = planner(&engine, "fragment_budget_bytes") / stripes.unwrap();
    assert!(parked < share, "{parked} parked bytes must fit a {share}-byte stripe share");
    engine.shutdown();
    engine.join();
}
