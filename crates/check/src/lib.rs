//! # valmod-check
//!
//! The differential-correctness harness of the VALMOD reproduction: a
//! deterministic, seeded sweep that pits every layer of the stack against
//! an independent implementation of the same question, plus a fault
//! injector for the serve layer. `valmod check --smoke --seed 42` is the CI
//! entry point; any non-zero seed reproduces a run bit-for-bit.
//!
//! Three pillars (DESIGN.md §10):
//!
//! * [`generators`] — adversarial series families (constant runs, isolated
//!   spikes, 1e-9 noise floors, 1e9 amplitudes, planted variable-length
//!   motifs, series barely longer than `ℓ_max`), each a pure function of
//!   `(seed, id)`;
//! * [`oracles`] — the diagonal-blocked kernel vs the row streamer
//!   (bit-exact, across block widths), VALMOD vs STOMP-per-length, parallel
//!   vs sequential, the complete per-length profiles vs STOMP (and at 2
//!   threads vs 1, bit-exact), a tail-extended profile vs cold STOMP in
//!   its pinned frame (bit-exact) and vs batch STOMP in the series' own
//!   frame, serve cached vs cold, the seeded `listDP` harvest vs an unseeded one
//!   (bit-exact), ComputeSubMP's lazy advance vs an eager reference
//!   rebuilt from every live entry's distance (bit-exact), and the Eq. 2
//!   lower-bound admissibility invariant probed against naive z-normalised
//!   distances;
//! * [`faults`] — truncated frames, oversized lines, malformed JSON,
//!   mid-`APPEND` disconnects, hostile numeric fields, and deadline expiry
//!   replayed against a real loopback server;
//! * [`cluster`] — the distributed-discovery matrix: coordinator/worker
//!   runs over real loopback TCP diffed bit-for-bit against the local
//!   executor, across partition shapes and under SIGKILLed, hung, and
//!   version-incompatible workers;
//! * [`recovery`] — kill-point crash injection against the durable store:
//!   WALs truncated before / mid / after a record and bit-flipped
//!   checksums, asserting the reopened store is bit-identical to replaying
//!   the surviving prefix and answers `MOTIFS` like a cold batch run;
//! * [`planner`] — the serve query planner probed differentially:
//!   fragment-composed and single-flight-coalesced answers diffed
//!   byte-for-byte against independent cold computes, and appends shown to
//!   park fragments that the next query lazily extends, bit-identically;
//! * [`extend`] — the incremental-extension machinery under randomized
//!   append schedules: tail-extended per-length profiles vs cold STOMP,
//!   and warm engines vs cold same-history replays, all `to_bits`-exact;
//! * [`stress`] — the sharded engine under real thread contention: N
//!   client threads driving seeded mixed LOAD/APPEND/MOTIFS/DISCORDS/
//!   SAVE/STATS schedules, with per-thread version monotonicity, merged
//!   version contiguity, and byte-identical replies vs a cold
//!   single-threaded engine replaying each series' linearized history.
//!
//! Failing cases are [`shrink()`](shrink::shrink)-minimised before being reported, so a
//! divergence arrives as a few dozen samples and a single length — ready to
//! be promoted into a named regression test.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cluster;
pub mod extend;
pub mod faults;
pub mod generators;
pub mod oracles;
pub mod planner;
pub mod recovery;
pub mod shrink;
pub mod stress;

use std::fmt;

pub use cluster::{run_cluster_matrix, ClusterReport};
pub use extend::{run_extend_matrix, ExtendReport};
pub use faults::{run_fault_matrix, FaultReport};
pub use generators::{generate_case, Case, Family};
pub use oracles::{run_case, CaseOutcome, Divergence};
pub use planner::{run_planner_matrix, PlannerReport};
pub use recovery::{run_recovery_matrix, RecoveryReport};
pub use shrink::shrink;
pub use stress::{run_stress_matrix, StressReport};

/// Configuration of one `valmod check` run.
#[derive(Debug, Clone)]
pub struct CheckConfig {
    /// Master seed; every case derives deterministically from it.
    pub seed: u64,
    /// Number of generated differential cases.
    pub cases: usize,
    /// Lower-bound admissibility probes per case (the run total is
    /// `cases × this`, minus pairs that stop existing at longer lengths).
    pub lb_probes_per_case: usize,
    /// Whether to run the serve fault-injection matrix.
    pub run_faults: bool,
    /// Whether to run the crash-recovery kill-point matrix.
    pub run_recovery: bool,
    /// Whether to run the distributed-discovery (cluster) matrix.
    pub run_cluster: bool,
    /// Whether to run the query-planner oracle matrix (fragment reuse and
    /// single-flight coalescing vs independent cold computes).
    pub run_planner: bool,
    /// Whether to run the incremental-extension oracle matrix
    /// (tail-extended profiles and lazily revived fragments vs cold
    /// same-history recomputes, under randomized append schedules).
    pub run_extend: bool,
    /// Whether to run the concurrent stress oracle (sharded engine under
    /// N client threads vs cold linearized replays).
    pub run_stress: bool,
    /// Client thread count for the stress oracle. 0 runs the default
    /// ladder (1 thread × 8 schedules, then 4 threads × 64 schedules);
    /// any other value runs exactly that thread count.
    pub stress_threads: usize,
}

impl CheckConfig {
    /// The CI smoke preset: ≥ 200 cases, ≥ 1000 admissibility probes,
    /// fault, recovery, cluster, and planner matrices on.
    pub fn smoke(seed: u64) -> Self {
        CheckConfig {
            seed,
            cases: 216,
            lb_probes_per_case: 24,
            run_faults: true,
            run_recovery: true,
            run_cluster: true,
            run_planner: true,
            run_extend: true,
            run_stress: true,
            stress_threads: 0,
        }
    }
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig::smoke(42)
    }
}

/// The result of a full harness run.
#[derive(Debug, Default)]
pub struct CheckReport {
    /// Differential cases executed.
    pub cases_run: usize,
    /// Lower-bound admissibility probes evaluated across all cases.
    pub lb_probes: usize,
    /// Every divergence found (after shrinking, one entry per case+oracle).
    pub divergences: Vec<Divergence>,
    /// Labels of the shrunk minimal reproductions, parallel to
    /// `divergences` where shrinking applied.
    pub shrunk_labels: Vec<String>,
    /// The fault-injection outcome (`None` when skipped).
    pub faults: Option<FaultReport>,
    /// The crash-recovery outcome (`None` when skipped).
    pub recovery: Option<RecoveryReport>,
    /// The distributed-discovery outcome (`None` when skipped).
    pub cluster: Option<ClusterReport>,
    /// The query-planner oracle outcome (`None` when skipped).
    pub planner: Option<PlannerReport>,
    /// The incremental-extension oracle outcome (`None` when skipped).
    pub extend: Option<ExtendReport>,
    /// The concurrent stress-oracle outcome (`None` when skipped).
    pub stress: Option<StressReport>,
}

impl CheckReport {
    /// True when the run found no divergences and no fault or recovery
    /// failures.
    pub fn clean(&self) -> bool {
        self.divergences.is_empty()
            && self.faults.as_ref().is_none_or(FaultReport::all_passed)
            && self.recovery.as_ref().is_none_or(RecoveryReport::all_passed)
            && self.cluster.as_ref().is_none_or(ClusterReport::all_passed)
            && self.planner.as_ref().is_none_or(PlannerReport::all_passed)
            && self.extend.as_ref().is_none_or(ExtendReport::all_passed)
            && self.stress.as_ref().is_none_or(StressReport::all_passed)
    }
}

impl fmt::Display for CheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "differential: {} cases, {} LB probes, {} divergence(s)",
            self.cases_run,
            self.lb_probes,
            self.divergences.len()
        )?;
        for d in &self.divergences {
            writeln!(f, "  DIVERGENCE [{}] {}", d.oracle, d.detail)?;
        }
        for label in &self.shrunk_labels {
            writeln!(f, "  shrunk to: {label}")?;
        }
        match &self.faults {
            None => writeln!(f, "faults: skipped")?,
            Some(fr) => {
                writeln!(f, "faults: {} passed, {} failed", fr.passed.len(), fr.failed.len())?;
                for (name, why) in &fr.failed {
                    writeln!(f, "  FAULT [{name}] {why}")?;
                }
            }
        }
        match &self.recovery {
            None => writeln!(f, "recovery: skipped")?,
            Some(rr) => {
                writeln!(f, "recovery: {} passed, {} failed", rr.passed.len(), rr.failed.len())?;
                for (name, why) in &rr.failed {
                    writeln!(f, "  RECOVERY [{name}] {why}")?;
                }
            }
        }
        match &self.cluster {
            None => writeln!(f, "cluster: skipped")?,
            Some(cr) => {
                writeln!(f, "cluster: {} passed, {} failed", cr.passed.len(), cr.failed.len())?;
                for (name, why) in &cr.failed {
                    writeln!(f, "  CLUSTER [{name}] {why}")?;
                }
            }
        }
        match &self.planner {
            None => writeln!(f, "planner: skipped")?,
            Some(pr) => {
                writeln!(f, "planner: {} passed, {} failed", pr.passed.len(), pr.failed.len())?;
                for (name, why) in &pr.failed {
                    writeln!(f, "  PLANNER [{name}] {why}")?;
                }
            }
        }
        match &self.extend {
            None => writeln!(f, "extend: skipped")?,
            Some(er) => {
                writeln!(f, "extend: {} passed, {} failed", er.passed.len(), er.failed.len())?;
                for (name, why) in &er.failed {
                    writeln!(f, "  EXTEND [{name}] {why}")?;
                }
            }
        }
        match &self.stress {
            None => writeln!(f, "stress: skipped")?,
            Some(sr) => {
                writeln!(f, "stress: {} passed, {} failed", sr.passed.len(), sr.failed.len())?;
                for (name, why) in &sr.failed {
                    writeln!(f, "  STRESS [{name}] {why}")?;
                }
            }
        }
        write!(f, "verdict: {}", if self.clean() { "CLEAN" } else { "DIVERGED" })
    }
}

/// Runs the harness: generates `config.cases` cases, runs every oracle over
/// each, shrinks any failure to a minimal reproduction, then (optionally)
/// replays the fault matrix.
pub fn run(config: &CheckConfig) -> CheckReport {
    let mut report = CheckReport::default();
    for id in 0..config.cases as u64 {
        let case = generate_case(config.seed, id);
        let outcome = run_case(&case, config.lb_probes_per_case);
        report.cases_run += 1;
        report.lb_probes += outcome.lb_probes;
        if outcome.divergences.is_empty() {
            continue;
        }
        // Shrink against the first diverging oracle, then report the
        // divergence as found on the minimal case.
        let oracle = outcome.divergences[0].oracle;
        let minimal = shrink(&case, |candidate| {
            run_case(candidate, config.lb_probes_per_case)
                .divergences
                .iter()
                .any(|d| d.oracle == oracle)
        });
        let minimal_outcome = run_case(&minimal, config.lb_probes_per_case);
        report.shrunk_labels.push(minimal.label());
        if minimal_outcome.divergences.is_empty() {
            // Flaky under shrinking — keep the original evidence.
            report.divergences.extend(outcome.divergences);
        } else {
            report.divergences.extend(minimal_outcome.divergences);
        }
    }
    if config.run_faults {
        report.faults = Some(run_fault_matrix());
    }
    if config.run_recovery {
        report.recovery = Some(run_recovery_matrix(config.seed));
    }
    if config.run_cluster {
        report.cluster = Some(run_cluster_matrix(config.seed));
    }
    if config.run_planner {
        report.planner = Some(run_planner_matrix(config.seed));
    }
    if config.run_extend {
        report.extend = Some(run_extend_matrix(config.seed));
    }
    if config.run_stress {
        report.stress = Some(run_stress_matrix(config.seed, config.stress_threads));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_small_run_is_clean_and_deterministic() {
        let config = CheckConfig {
            seed: 42,
            cases: 8,
            lb_probes_per_case: 16,
            run_faults: false,
            run_recovery: false,
            run_cluster: false,
            run_planner: false,
            run_extend: false,
            run_stress: false,
            stress_threads: 0,
        };
        let a = run(&config);
        assert!(a.clean(), "{a}");
        assert_eq!(a.cases_run, 8);
        assert!(a.lb_probes > 0);
        let b = run(&config);
        assert_eq!(a.lb_probes, b.lb_probes, "probe sampling must be deterministic");
    }

    #[test]
    fn the_report_displays_a_verdict() {
        let config = CheckConfig {
            seed: 7,
            cases: 2,
            lb_probes_per_case: 4,
            run_faults: false,
            run_recovery: false,
            run_cluster: false,
            run_planner: false,
            run_extend: false,
            run_stress: false,
            stress_threads: 0,
        };
        let text = run(&config).to_string();
        assert!(text.contains("differential: 2 cases"));
        assert!(text.contains("recovery: skipped"));
        assert!(text.contains("planner: skipped"));
        assert!(text.contains("extend: skipped"));
        assert!(text.contains("stress: skipped"));
        assert!(text.contains("verdict:"));
    }
}
