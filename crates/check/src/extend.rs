//! The incremental-extension oracle matrix: differential evidence that the
//! tail-extension fast paths are invisible, bit for bit.
//!
//! An APPEND in the serve layer only validates, logs and stores. The next
//! query revives the planner's parked
//! [`SegmentState`](valmod_core::SegmentState) by tail extension
//! ([`valmod_mp::extend_profile`] for its profile,
//! [`valmod_mp::extend_cells`] for its harvest), and claims bitwise
//! equality with the cold computation it replaces. This module earns that
//! claim under *randomized append schedules* drawn from the run's seed:
//!
//! * **profile-extension-vs-cold-stomp** — a cached `MatrixProfile` grown
//!   via [`valmod_mp::extend_profile`] after every chunk is bit-identical
//!   to a cold STOMP over the grown prefix in the same stats frame. The
//!   schedules include single samples, so this also holds the extension
//!   invariant to how the growth is chunked;
//! * **serve-schedule-vs-cold-history** — a warm engine whose fragments
//!   are lazily extended across a random APPEND/query interleaving answers
//!   byte-identically to fresh zero-cache engines replaying the same
//!   LOAD + APPEND history, and its STATS prove the extension path (not a
//!   recompute) produced those answers. The queries include single-length
//!   segments: a fixed hot length (whose state the warm engine pins and
//!   the cold engines, loaded without hot lengths, never have), a fixed
//!   length that is not hot, and a range whose last segment is one length;
//! * **serve-shipped-defaults** — the same claim at the engine's shipped
//!   budgets and the paper's `p = 50` on a 2048-point series, where every
//!   append must extend: the parked state has to fit a default stripe.
//!
//! Schedules deliberately mix single samples, sub-window chunks, and
//! batches longer than the subsequence length, so the extension machinery
//! crosses every alignment of the QT recurrence.

use std::time::Duration;

use valmod_data::rng::Xoshiro256;
use valmod_mp::{extend_profile, stomp_with_tail, ExclusionPolicy, MatrixProfile, ProfiledSeries};
use valmod_serve::engine::{EngineConfig, QueryEngine, QueryKind, QuerySpec};
use valmod_serve::Value;

/// Outcome of the extension oracle matrix.
#[derive(Debug, Default)]
pub struct ExtendReport {
    /// Scenario names that ran clean.
    pub passed: Vec<String>,
    /// `(scenario, what went wrong)` for the rest.
    pub failed: Vec<(String, String)>,
}

impl ExtendReport {
    /// True when every scenario passed.
    pub fn all_passed(&self) -> bool {
        self.failed.is_empty()
    }

    fn record(&mut self, name: &str, result: Result<(), String>) {
        match result {
            Ok(()) => self.passed.push(name.to_string()),
            Err(why) => self.failed.push((name.to_string(), why)),
        }
    }
}

/// Draws an append schedule: `batches` chunks whose sizes cross the
/// interesting alignments relative to subsequence length `l` — single
/// samples, partial windows, and chunks longer than a full window.
fn draw_schedule(rng: &mut Xoshiro256, batches: usize, l: usize) -> Vec<usize> {
    (0..batches)
        .map(|_| match rng.uniform_usize(0, 3) {
            0 => 1,
            1 => rng.uniform_usize(2, l.max(3)),
            _ => rng.uniform_usize(l, 2 * l + 8),
        })
        .collect()
}

fn diff_profiles(a: &MatrixProfile, b: &MatrixProfile, what: &str) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!("{what}: {} vs {} rows", a.len(), b.len()));
    }
    for i in 0..a.len() {
        if a.mp[i].to_bits() != b.mp[i].to_bits() || a.ip[i] != b.ip[i] {
            return Err(format!(
                "{what}: row {i} diverges ({} @ {} vs {} @ {})",
                a.mp[i], a.ip[i], b.mp[i], b.ip[i]
            ));
        }
    }
    Ok(())
}

/// A cached per-length profile grown via [`extend_profile`] vs a cold STOMP
/// of the grown prefix, in the frame pinned at the base load.
fn profile_extension_vs_cold_stomp(seed: u64) -> Result<(), String> {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    for round in 0..3u32 {
        let l = rng.uniform_usize(8, 41);
        let base_n = rng.uniform_usize(6 * l, 10 * l);
        let schedule = draw_schedule(&mut rng, 3, l);
        let total = base_n + schedule.iter().sum::<usize>();
        let series = valmod_data::generators::random_walk(total, seed ^ u64::from(round));

        let base = ProfiledSeries::from_values(&series[..base_n])
            .map_err(|e| format!("round {round}: base: {e}"))?;
        let offset = base.offset();
        let (mut profile, mut state) = stomp_with_tail(&base, l, ExclusionPolicy::HALF)
            .map_err(|e| format!("round {round}: cold half: {e}"))?;
        let mut n = base_n;
        for &k in &schedule {
            n += k;
            let grown = ProfiledSeries::with_offset(&series[..n], offset)
                .map_err(|e| format!("round {round}: grown: {e}"))?;
            extend_profile(&mut profile, &mut state, &grown)
                .map_err(|e| format!("round {round}: extend: {e}"))?;
            let cold = valmod_mp::stomp(&grown, l, ExclusionPolicy::HALF)
                .map_err(|e| format!("round {round}: cold stomp: {e}"))?;
            diff_profiles(
                &profile,
                &cold,
                &format!("round {round} l={l} schedule {schedule:?} at n={n}"),
            )?;
        }
    }
    Ok(())
}

fn spec(kind: QueryKind, l_min: usize, l_max: usize) -> QuerySpec {
    QuerySpec {
        series: "s".into(),
        kind,
        l_min,
        l_max,
        p: 5,
        policy: ExclusionPolicy::HALF,
        deadline: None,
    }
}

fn body_of(payload: &Value) -> Result<String, String> {
    payload.get("body").map(Value::encode).ok_or_else(|| "payload missing \"body\"".to_string())
}

fn planner_stat(stats: &Value, key: &str) -> Result<usize, String> {
    stats
        .get("planner")
        .and_then(|p| p.get(key))
        .and_then(Value::as_usize)
        .ok_or_else(|| format!("STATS missing planner.{key}"))
}

/// A fresh zero-cache engine that replays `history` (LOAD of the first
/// slice, APPEND of the rest) and answers `s` cold.
fn cold_history_body(history: &[&[f64]], s: QuerySpec) -> Result<String, String> {
    let cfg = EngineConfig::builder()
        .workers(1)
        .queue_depth(16)
        .cache_bytes(0)
        .fragment_cache_bytes(0)
        .default_deadline(Duration::from_secs(300))
        .build()
        .map_err(|e| format!("cold engine config: {e}"))?;
    let engine = QueryEngine::new(cfg);
    let result = (|| {
        engine
            .load("s", history[0].to_vec(), &[], ExclusionPolicy::HALF, false)
            .map_err(|e| format!("cold load: {e}"))?;
        for batch in &history[1..] {
            engine.append("s", batch).map_err(|e| format!("cold append: {e}"))?;
        }
        let out = engine.query(s).map_err(|e| format!("cold query: {e}"))?;
        body_of(&out.payload)
    })();
    engine.shutdown();
    engine.join();
    result
}

/// A warm engine driven through a random APPEND/query interleaving vs
/// fresh same-history cold engines, byte for byte, with STATS proving the
/// answers came off the extension path.
fn serve_schedule_vs_cold_history(seed: u64) -> Result<(), String> {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let l = 24;
    let base_n = 500;
    let schedule = draw_schedule(&mut rng, 3, l);
    let total = base_n + schedule.iter().sum::<usize>();
    let (values, _) = valmod_data::generators::plant_motif(total, l, 2, 0.001, seed);

    let cfg = EngineConfig::builder()
        .workers(1)
        .queue_depth(16)
        .cache_bytes(0)
        .fragment_cache_bytes(8 << 20)
        .default_deadline(Duration::from_secs(300))
        .build()
        .map_err(|e| format!("warm engine config: {e}"))?;
    let engine = QueryEngine::new(cfg);
    let result = (|| {
        engine
            .load("s", values[..base_n].to_vec(), &[l], ExclusionPolicy::HALF, false)
            .map_err(|e| format!("warm load: {e}"))?;
        // 16..28 plans [16, 18], [19, 27] and the single length [28, 28].
        let queries: [(QueryKind, usize, usize); 5] = [
            (QueryKind::Motifs { top: 3 }, 16, 40),
            (QueryKind::Discords { top: 2 }, 16, 32),
            (QueryKind::Motifs { top: 3 }, l, l),
            (QueryKind::Discords { top: 2 }, 20, 20),
            (QueryKind::Discords { top: 2 }, 16, 28),
        ];
        // Prime the fragments, then interleave appends with re-queries.
        for (kind, lo, hi) in &queries {
            engine
                .query(spec(kind.clone(), *lo, *hi))
                .map_err(|e| format!("priming query: {e}"))?;
        }
        let mut n = base_n;
        let mut history: Vec<&[f64]> = vec![&values[..base_n]];
        for &k in &schedule {
            engine.append("s", &values[n..n + k]).map_err(|e| format!("append({k}): {e}"))?;
            history.push(&values[n..n + k]);
            n += k;
            for (kind, lo, hi) in &queries {
                let q = || spec(kind.clone(), *lo, *hi);
                let out = engine.query(q()).map_err(|e| format!("warm query: {e}"))?;
                let warm = body_of(&out.payload)?;
                let cold = cold_history_body(&history, q())?;
                if warm != cold {
                    return Err(format!(
                        "extended answer diverges from cold same-history replay at \
                         {kind:?} l in [{lo}, {hi}], n={n}: {warm} vs {cold}"
                    ));
                }
            }
        }
        let stats = engine.stats();
        if planner_stat(&stats, "fragments_extended")? == 0 {
            return Err("the schedule never exercised the extension path".into());
        }
        if planner_stat(&stats, "pinned_states")? != 1 {
            return Err("the hot length's single-length state is not pinned".into());
        }
        if planner_stat(&stats, "fragment_invalidated")? == 0 {
            return Err("stale fragments were never lazily collected".into());
        }
        Ok(())
    })();
    engine.shutdown();
    engine.join();
    result
}

/// Incremental APPEND at the shipped engine defaults (no budget override):
/// LOAD 2048 ECG-like points, MOTIFS `[64, 80]` at `p = 50`, then four
/// 16-sample APPEND → MOTIFS rounds. Every round must extend the parked
/// state and answer byte-identically to a cold same-history replay.
fn serve_shipped_defaults_vs_cold_history(seed: u64) -> Result<(), String> {
    const BASE: usize = 2048;
    const BATCH: usize = 16;
    const ROUNDS: usize = 4;
    let values = valmod_data::datasets::ecg_like(BASE + ROUNDS * BATCH, seed).into_values();
    let q = || QuerySpec { p: 50, ..spec(QueryKind::Motifs { top: 3 }, 64, 80) };
    let cfg = EngineConfig::builder()
        .default_deadline(Duration::from_secs(300))
        .build()
        .map_err(|e| format!("default engine config: {e}"))?;
    let engine = QueryEngine::new(cfg);
    let result = (|| {
        engine
            .load("s", values[..BASE].to_vec(), &[], ExclusionPolicy::HALF, false)
            .map_err(|e| format!("load: {e}"))?;
        engine.query(q()).map_err(|e| format!("priming query: {e}"))?;
        let mut history: Vec<&[f64]> = vec![&values[..BASE]];
        for round in 1..=ROUNDS {
            let batch = &values[BASE + (round - 1) * BATCH..BASE + round * BATCH];
            engine.append("s", batch).map_err(|e| format!("append {round}: {e}"))?;
            history.push(batch);
            let out = engine.query(q()).map_err(|e| format!("query {round}: {e}"))?;
            let warm = body_of(&out.payload)?;
            let cold = cold_history_body(&history, q())?;
            if warm != cold {
                return Err(format!(
                    "append {round}: extended answer diverges from cold same-history replay: \
                     {warm} vs {cold}"
                ));
            }
            let extended = planner_stat(&engine.stats(), "fragments_extended")?;
            if extended != round {
                return Err(format!(
                    "append {round}: {extended} extensions — the parked state did not fit a \
                     default stripe (states_refused = {})",
                    planner_stat(&engine.stats(), "states_refused")?
                ));
            }
        }
        Ok(())
    })();
    engine.shutdown();
    engine.join();
    result
}

/// Runs every extension scenario and reports.
pub fn run_extend_matrix(seed: u64) -> ExtendReport {
    let mut report = ExtendReport::default();
    report.record(
        "profile-extension-vs-cold-stomp",
        profile_extension_vs_cold_stomp(seed ^ 0x7461_696c),
    );
    report.record(
        "serve-schedule-vs-cold-history",
        serve_schedule_vs_cold_history(seed ^ 0x6578_7464),
    );
    report.record(
        "serve-shipped-defaults",
        serve_shipped_defaults_vs_cold_history(seed ^ 0x6466_6c74),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_extend_matrix_passes() {
        let report = run_extend_matrix(42);
        assert!(report.all_passed(), "failed scenarios: {:?}", report.failed);
        assert_eq!(report.passed.len(), 3);
    }

    #[test]
    fn schedules_cross_the_window_alignments() {
        let mut rng = Xoshiro256::seed_from_u64(7);
        let schedule = draw_schedule(&mut rng, 64, 16);
        assert!(schedule.contains(&1), "no single-sample batch in {schedule:?}");
        assert!(schedule.iter().any(|&k| k > 16), "no over-window batch in {schedule:?}");
        assert!(schedule.iter().all(|&k| k >= 1));
    }
}
