//! A reusable arena of kernel scratch buffers.
//!
//! Every matrix-profile computation needs the same transient state: the
//! direct-sum first dot-product row, per-offset rolling statistics, and
//! (during lower-bound refinement) a recomputed dot-product row. [`Workspace`] owns all of it, plus a
//! [`PlanCache`] of FFT plans, so a VALMOD sweep over ℓmin..ℓmax — dozens of
//! `ComputeMatrixProfile`/`ComputeSubMP` calls — allocates each buffer once
//! and reuses every FFT plan instead of rebuilding per length.
//!
//! A workspace never changes results: the plan cache is bit-identical to
//! fresh plans by construction, buffers are fully overwritten before use,
//! and the [`HarvestHint`] it may carry between passes is verified by the
//! harvest that reads it. It is deliberately not thread-safe; parallel
//! kernels share only the read-only seeds
//! ([`Diagonals`](crate::diagonal::Diagonals)) and keep their in-flight
//! diagonal values per range.

use valmod_fft::PlanCache;

use crate::context::ProfiledSeries;

/// Default diagonal block width (in diagonals) for the blocked STOMP kernel.
///
/// 256 diagonals keep the in-flight QT values (2 KiB) plus the touched
/// series window comfortably inside L1 while leaving enough width for the
/// update loop to vectorise.
pub const DEFAULT_BLOCK: usize = 256;

/// Per-row distance bounds that one pass over a workspace leaves for the
/// next harvesting pass at the same length.
///
/// `valmod-core`'s `ComputeSubMP` sets it when it fails to certify a length:
/// `max_dist[r]` is the largest distance among `p` distinct valid pairs of
/// row `r` at length `l` (`+∞` when the row knows fewer). The harvest that
/// follows at `l` starts each row's admission gate there. Any content is
/// safe: the harvest verifies the hint and reruns without it when the hint
/// was too tight.
#[derive(Debug, Clone, PartialEq)]
pub struct HarvestHint {
    /// The subsequence length the bounds hold at.
    pub l: usize,
    /// The per-row entry count `p` the bounds were taken over.
    pub p: usize,
    /// One bound per row.
    pub max_dist: Vec<f64>,
}

/// Reusable buffers + FFT plan cache for the matrix-profile kernels.
#[derive(Debug)]
pub struct Workspace {
    /// Cached FFT plans and convolution scratch.
    pub(crate) plans: PlanCache,
    /// `⟨T_0, T_j⟩` seeds for every diagonal (filled per kernel call).
    pub(crate) qt_first: Vec<f64>,
    /// Per-offset subsequence means on the centred series.
    pub(crate) means: Vec<f64>,
    /// Per-offset subsequence standard deviations.
    pub(crate) stds: Vec<f64>,
    /// Generic dot-product row scratch (lower-bound refinement).
    pub(crate) qt: Vec<f64>,
    /// Left by one pass for the next harvest at the same length.
    harvest_hint: Option<HarvestHint>,
    block: usize,
    uses: u64,
}

impl Default for Workspace {
    fn default() -> Self {
        Self::new()
    }
}

impl Workspace {
    /// A workspace with the default diagonal block width.
    pub fn new() -> Self {
        Self::with_block(DEFAULT_BLOCK)
    }

    /// A workspace with an explicit diagonal block width (`>= 1`; the oracle
    /// harness exercises degenerate widths like 1 and widths beyond `n`).
    pub fn with_block(block: usize) -> Self {
        Workspace {
            plans: PlanCache::new(),
            qt_first: Vec::new(),
            means: Vec::new(),
            stds: Vec::new(),
            qt: Vec::new(),
            harvest_hint: None,
            block: block.max(1),
            uses: 0,
        }
    }

    /// The diagonal block width used by the blocked kernel.
    #[inline]
    pub fn block(&self) -> usize {
        self.block
    }

    /// The FFT plan cache (exposed for counter snapshots).
    #[inline]
    pub fn plan_cache(&self) -> &PlanCache {
        &self.plans
    }

    /// How many kernel invocations have used this workspace.
    #[inline]
    pub fn uses(&self) -> u64 {
        self.uses
    }

    /// Marks one kernel use; returns `true` when this is a *re*use (the
    /// buffers and plans of an earlier call are being recycled).
    pub(crate) fn note_use(&mut self) -> bool {
        self.uses += 1;
        self.uses > 1
    }

    /// Leaves `hint` for the next harvesting pass, replacing any earlier one.
    pub fn set_harvest_hint(&mut self, hint: HarvestHint) {
        self.harvest_hint = Some(hint);
    }

    /// Removes and returns the pending hint, if any.
    pub fn take_harvest_hint(&mut self) -> Option<HarvestHint> {
        self.harvest_hint.take()
    }

    /// `⟨T_i, T_j⟩` for all `j`, via the cached FFT plans into workspace
    /// scratch. Bit-identical to
    /// [`self_qt`](crate::distance_profile::self_qt).
    pub fn self_qt(&mut self, ps: &ProfiledSeries, i: usize, l: usize) -> &[f64] {
        let t = ps.centered();
        let Workspace { plans, qt, .. } = self;
        plans.sliding_dot_product_into(&t[i..i + l], t, qt);
        qt
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance_profile::self_qt;
    use valmod_data::generators::random_walk;

    #[test]
    fn workspace_self_qt_is_bit_identical_to_free_function() {
        let ps = ProfiledSeries::from_values(&random_walk(400, 11)).unwrap();
        let mut ws = Workspace::new();
        for l in [8usize, 33, 64] {
            for i in [0usize, 5, 100] {
                let cached = ws.self_qt(&ps, i, l).to_vec();
                let fresh = self_qt(&ps, i, l);
                assert_eq!(cached.len(), fresh.len());
                for (a, b) in cached.iter().zip(&fresh) {
                    assert_eq!(a.to_bits(), b.to_bits(), "l={l} i={i}");
                }
            }
        }
    }

    #[test]
    fn block_width_is_clamped_to_at_least_one() {
        assert_eq!(Workspace::with_block(0).block(), 1);
        assert_eq!(Workspace::with_block(7).block(), 7);
        assert_eq!(Workspace::new().block(), DEFAULT_BLOCK);
    }

    #[test]
    fn uses_count_reuses() {
        let mut ws = Workspace::new();
        assert!(!ws.note_use());
        assert!(ws.note_use());
        assert_eq!(ws.uses(), 2);
    }
}
