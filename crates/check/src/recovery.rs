//! The crash-recovery oracle: kill-point fault injection for the durable
//! serve store.
//!
//! One reference ingestion (a LOAD plus several APPEND batches of varying
//! sizes) is run against a durable [`SeriesStore`] to produce a data
//! directory whose WAL holds every append. Each scenario then copies that
//! directory, simulates a crash at a chosen kill point — before the last
//! WAL record, mid-write (torn header / payload / checksum), after a bit
//! flip, or not at all — and reopens the copy, asserting that:
//!
//! * recovery never panics and never reports an error for a torn tail;
//! * the recovered samples are **bit-identical** to replaying the
//!   surviving prefix of batches (a fully-synced APPEND is never lost,
//!   a half-written one is cleanly dropped);
//! * the version counter and hot lengths match the reference;
//! * post-recovery `MOTIFS` answers — a variable-length range and the
//!   fixed hot length, whose single-length state the recovered engine
//!   pins — are byte-identical to a cold engine loaded without hot lengths
//!   that replays the same ingestion history (the stats frame is pinned at
//!   LOAD time, so the replay — not a one-shot LOAD — is the oracle).
//!
//! Everything derives from the run's seed, so `valmod check --seed 42`
//! reproduces the same matrix bit-for-bit.

use std::path::{Path, PathBuf};

use valmod_data::generators::random_walk;
use valmod_mp::ExclusionPolicy;
use valmod_serve::engine::{EngineConfig, QueryEngine, QueryKind, QuerySpec};
use valmod_serve::persist::wal_record_spans;
use valmod_serve::{SeriesStore, SharedRecorder, Value};

/// Append-batch sizes of the reference ingestion: deliberately irregular
/// (shorter than the hot window, a single sample, longer batches) so WAL
/// records have different lengths and kill points land mid-structure.
const BATCH_SIZES: [usize; 4] = [7, 32, 1, 40];

/// Samples loaded before any append.
const BASE_LEN: usize = 256;

/// The reference series' hot length: the recovered engine pins its
/// single-length planner state.
const HOT_LENGTH: usize = 16;

/// Outcome of the recovery matrix.
#[derive(Debug, Default)]
pub struct RecoveryReport {
    /// Scenario names that ran clean.
    pub passed: Vec<String>,
    /// `(scenario, what went wrong)` for the rest.
    pub failed: Vec<(String, String)>,
}

impl RecoveryReport {
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

/// How a scenario mutates the reference WAL before reopening.
enum KillPoint {
    /// No crash: every batch was fully synced and must survive.
    None,
    /// Crash before record `i` was written at all.
    BeforeRecord(usize),
    /// Crash mid-write: record `i` truncated `bytes_into` bytes in.
    TornRecord { index: usize, bytes_into: usize },
    /// Record `i` fully written but a byte at `offset_in_record` flipped.
    BitFlip { index: usize, offset_in_record: usize },
}

impl KillPoint {
    /// Number of reference batches that must survive recovery.
    fn surviving_batches(&self) -> usize {
        match self {
            KillPoint::None => BATCH_SIZES.len(),
            KillPoint::BeforeRecord(i)
            | KillPoint::TornRecord { index: i, .. }
            | KillPoint::BitFlip { index: i, .. } => *i,
        }
    }

    fn apply(&self, wal_path: &Path) -> Result<(), String> {
        let bytes = std::fs::read(wal_path).map_err(|e| format!("read WAL: {e}"))?;
        let spans = wal_record_spans(&bytes);
        if spans.len() != BATCH_SIZES.len() {
            return Err(format!(
                "reference WAL has {} records, expected {}",
                spans.len(),
                BATCH_SIZES.len()
            ));
        }
        let mutated = match *self {
            KillPoint::None => return Ok(()),
            KillPoint::BeforeRecord(i) => bytes[..spans[i].0].to_vec(),
            KillPoint::TornRecord { index, bytes_into } => {
                let (start, end) = spans[index];
                bytes[..start.saturating_add(bytes_into).min(end - 1)].to_vec()
            }
            KillPoint::BitFlip { index, offset_in_record } => {
                let (start, end) = spans[index];
                let mut out = bytes;
                out[start.saturating_add(offset_in_record).min(end - 1)] ^= 0x40;
                out
            }
        };
        std::fs::write(wal_path, mutated).map_err(|e| format!("write WAL: {e}"))
    }
}

/// Runs the full kill-point matrix. Deterministic in `seed`.
pub fn run_recovery_matrix(seed: u64) -> RecoveryReport {
    let mut report = RecoveryReport::default();
    let root =
        std::env::temp_dir().join(format!("valmod_check_recovery_{}_{}", std::process::id(), seed));
    let _ = std::fs::remove_dir_all(&root);

    let samples = random_walk(BASE_LEN + BATCH_SIZES.iter().sum::<usize>(), seed);
    let base_dir = root.join("base");
    if let Err(why) = build_reference_dir(&base_dir, &samples) {
        report.record("build-reference", Err(why));
        return report;
    }
    report.record("build-reference", Ok(()));

    // spans/offsets are resolved per scenario from the copied WAL; the
    // kill points below are phrased in record coordinates. The torn
    // offsets land in the magic (2), the header (9), and the payload (20)
    // of the final record; the flips hit its payload and checksum.
    let last = BATCH_SIZES.len() - 1;
    let scenarios: Vec<(&str, KillPoint)> = vec![
        ("clean-restart", KillPoint::None),
        ("crash-before-last-record", KillPoint::BeforeRecord(last)),
        ("crash-before-any-record", KillPoint::BeforeRecord(0)),
        ("torn-magic", KillPoint::TornRecord { index: last, bytes_into: 2 }),
        ("torn-header", KillPoint::TornRecord { index: last, bytes_into: 9 }),
        ("torn-payload", KillPoint::TornRecord { index: last, bytes_into: 20 }),
        ("torn-checksum", KillPoint::TornRecord { index: last, bytes_into: usize::MAX }),
        ("bitflip-payload", KillPoint::BitFlip { index: last, offset_in_record: 20 }),
        ("bitflip-checksum", KillPoint::BitFlip { index: last, offset_in_record: usize::MAX }),
        ("bitflip-first-record", KillPoint::BitFlip { index: 0, offset_in_record: 6 }),
    ];
    for (name, kill) in scenarios {
        let dir = root.join(name);
        report.record(name, run_scenario(&base_dir, &dir, &kill, &samples));
    }

    // Double recovery: recovering a truncated directory twice must agree
    // with itself (the truncation is physical, not re-derived each open).
    report.record("recover-twice-is-stable", recover_twice(&base_dir, &root, &samples));

    let _ = std::fs::remove_dir_all(&root);
    report
}

/// Ingests the reference workload into `dir`: LOAD of the base prefix with
/// one hot length, then the `BATCH_SIZES` appends, all WAL-logged.
fn build_reference_dir(dir: &Path, samples: &[f64]) -> Result<(), String> {
    let noop = SharedRecorder::noop();
    let store = SeriesStore::open(dir, u64::MAX, &noop)
        .map_err(|e| format!("open reference store: {e}"))?;
    store
        .load("s", samples[..BASE_LEN].to_vec(), &[HOT_LENGTH], ExclusionPolicy::HALF, false, &noop)
        .map_err(|e| format!("reference load: {e}"))?;
    let mut offset = BASE_LEN;
    for size in BATCH_SIZES {
        store
            .append("s", &samples[offset..offset + size], &noop)
            .map_err(|e| format!("reference append at {offset}: {e}"))?;
        offset += size;
    }
    Ok(())
}

/// Copies the reference dir, applies the kill point, reopens, and checks
/// the recovered store against replaying the surviving prefix.
fn run_scenario(base: &Path, dir: &Path, kill: &KillPoint, samples: &[f64]) -> Result<(), String> {
    copy_dir(base, dir)?;
    let wal = find_one(dir, "wal")?;
    kill.apply(&wal)?;

    let noop = SharedRecorder::noop();
    let store =
        SeriesStore::open(dir, u64::MAX, &noop).map_err(|e| format!("recovery errored: {e}"))?;
    if !store.recovery_skipped().is_empty() {
        return Err(format!("recovery skipped files: {:?}", store.recovery_skipped()));
    }
    let slot = store.get("s").map_err(|e| format!("series missing after recovery: {e}"))?;
    let recovered = slot.read();

    let surviving = kill.surviving_batches();
    let expected_len = BASE_LEN + BATCH_SIZES[..surviving].iter().sum::<usize>();
    let expected_version = 1 + surviving as u64;
    if recovered.len() != expected_len {
        return Err(format!(
            "recovered {} samples, expected {expected_len} ({surviving} surviving batches)",
            recovered.len()
        ));
    }
    if recovered.version() != expected_version {
        return Err(format!(
            "recovered version {}, expected {expected_version}",
            recovered.version()
        ));
    }
    if slot.hot_lengths() != [HOT_LENGTH] {
        return Err(format!("hot lengths {:?}, expected [{HOT_LENGTH}]", slot.hot_lengths()));
    }
    for (i, (a, b)) in recovered.values().iter().zip(&samples[..expected_len]).enumerate() {
        if a.to_bits() != b.to_bits() {
            return Err(format!("sample {i} differs after recovery: {a} vs {b}"));
        }
    }
    drop(recovered);
    drop(store);

    // A fully-synced final batch (clean restart) and the deepest
    // truncation both answer queries exactly like a cold engine over the
    // reference prefix.
    motifs_match_cold(dir, &samples[..expected_len])
}

/// Asserts a durable engine over `dir` answers MOTIFS queries — a
/// variable-length range and the fixed hot length — byte-identically to
/// an in-memory engine loaded without hot lengths that replays the same
/// ingestion history (LOAD of the base prefix, then the surviving APPEND
/// batches). The history matters: a series' stats frame is pinned at LOAD
/// time, so a one-shot LOAD of the full samples would sit in a different
/// frame than the recovered store and could differ in the last float bit.
fn motifs_match_cold(dir: &Path, reference: &[f64]) -> Result<(), String> {
    for l_max in [HOT_LENGTH + 8, HOT_LENGTH] {
        motifs_match_cold_at(dir, reference, l_max)?;
    }
    Ok(())
}

fn motifs_match_cold_at(dir: &Path, reference: &[f64], l_max: usize) -> Result<(), String> {
    let spec = QuerySpec {
        series: "s".into(),
        kind: QueryKind::Motifs { top: 3 },
        l_min: HOT_LENGTH,
        l_max,
        p: 8,
        policy: ExclusionPolicy::HALF,
        deadline: None,
    };
    let recovered_body = {
        let config = EngineConfig::builder()
            .workers(1)
            .data_dir(dir)
            .build()
            .map_err(|e| format!("engine config: {e}"))?;
        let engine = QueryEngine::open(config).map_err(|e| format!("open durable engine: {e}"))?;
        let out = engine.query(spec.clone()).map_err(|e| format!("post-recovery query: {e}"))?;
        let pinned = engine
            .stats()
            .get("planner")
            .and_then(|p| p.get("pinned_states"))
            .and_then(Value::as_usize);
        engine.shutdown();
        engine.join();
        let expected = usize::from(l_max == HOT_LENGTH);
        if pinned != Some(expected) {
            return Err(format!("recovered engine pins {pinned:?} states, expected {expected}"));
        }
        body_of(&out.payload)?
    };
    let cold_body = {
        let engine = QueryEngine::new(
            EngineConfig::builder().workers(1).build().expect("static engine config"),
        );
        let base = reference.len().min(BASE_LEN);
        engine
            .load("s", reference[..base].to_vec(), &[], ExclusionPolicy::HALF, false)
            .map_err(|e| format!("cold load: {e}"))?;
        let mut offset = base;
        for size in BATCH_SIZES {
            if offset >= reference.len() {
                break;
            }
            let end = (offset + size).min(reference.len());
            engine
                .append("s", &reference[offset..end])
                .map_err(|e| format!("cold replay append at {offset}: {e}"))?;
            offset = end;
        }
        let out = engine.query(spec).map_err(|e| format!("cold query: {e}"))?;
        let body = body_of(&out.payload)?;
        engine.shutdown();
        engine.join();
        body
    };
    if recovered_body != cold_body {
        return Err(format!(
            "post-recovery MOTIFS [{HOT_LENGTH}, {l_max}] diverges from cold batch: \
             {recovered_body} vs {cold_body}"
        ));
    }
    Ok(())
}

fn body_of(payload: &Value) -> Result<String, String> {
    payload
        .get("body")
        .map(Value::encode)
        .ok_or_else(|| "query payload missing \"body\"".to_string())
}

/// A torn directory recovered twice must yield the same store both times,
/// proving truncation is physical (idempotent) rather than re-decided.
fn recover_twice(base: &Path, root: &Path, samples: &[f64]) -> Result<(), String> {
    let dir = root.join("recover-twice");
    copy_dir(base, &dir)?;
    let wal = find_one(&dir, "wal")?;
    KillPoint::TornRecord { index: BATCH_SIZES.len() - 1, bytes_into: 20 }.apply(&wal)?;

    let noop = SharedRecorder::noop();
    let first = {
        let store =
            SeriesStore::open(&dir, u64::MAX, &noop).map_err(|e| format!("first open: {e}"))?;
        store.get("s").map_err(|e| e.to_string())?.read().values().to_vec()
    };
    let wal_after_first = std::fs::metadata(&wal).map_err(|e| format!("stat WAL: {e}"))?.len();
    let second = {
        let store =
            SeriesStore::open(&dir, u64::MAX, &noop).map_err(|e| format!("second open: {e}"))?;
        store.get("s").map_err(|e| e.to_string())?.read().values().to_vec()
    };
    let wal_after_second = std::fs::metadata(&wal).map_err(|e| format!("stat WAL: {e}"))?.len();
    if first.len() != second.len()
        || first.iter().zip(&second).any(|(a, b)| a.to_bits() != b.to_bits())
    {
        return Err("second recovery disagrees with the first".into());
    }
    if wal_after_first != wal_after_second {
        return Err(format!(
            "WAL length changed between recoveries: {wal_after_first} then {wal_after_second}"
        ));
    }
    let expected_len = BASE_LEN + BATCH_SIZES[..BATCH_SIZES.len() - 1].iter().sum::<usize>();
    if first.len() != expected_len {
        return Err(format!("recovered {} samples, expected {expected_len}", first.len()));
    }
    if first.iter().zip(&samples[..expected_len]).any(|(a, b)| a.to_bits() != b.to_bits()) {
        return Err("recovered samples differ from the reference prefix".into());
    }
    Ok(())
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("create {}: {e}", to.display()))?;
    for entry in std::fs::read_dir(from).map_err(|e| format!("read {}: {e}", from.display()))? {
        let entry = entry.map_err(|e| format!("read dir entry: {e}"))?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))
            .map_err(|e| format!("copy {}: {e}", entry.path().display()))?;
    }
    Ok(())
}

fn find_one(dir: &Path, ext: &str) -> Result<PathBuf, String> {
    let mut found = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))? {
        let path = entry.map_err(|e| format!("read dir entry: {e}"))?.path();
        if path.extension().is_some_and(|e| e == ext) {
            found.push(path);
        }
    }
    match found.len() {
        1 => Ok(found.remove(0)),
        n => Err(format!("expected exactly one .{ext} file in {}, found {n}", dir.display())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_matrix_is_clean_on_seed_42() {
        let report = run_recovery_matrix(42);
        assert!(report.all_passed(), "failures: {:?}", report.failed);
        // Every named scenario ran.
        assert!(report.passed.len() >= 11, "ran: {:?}", report.passed);
    }

    #[test]
    fn the_matrix_is_deterministic() {
        let a = run_recovery_matrix(7);
        let b = run_recovery_matrix(7);
        assert_eq!(a.passed, b.passed);
        assert_eq!(a.failed, b.failed);
    }
}
