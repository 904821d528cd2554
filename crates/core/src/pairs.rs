//! Top-K motif-pair tracking with partial-profile snapshots
//! (paper Algorithm 5, `updateVALMPForMotifSets`).
//!
//! Whenever a VALMP slot improves, the improving pair becomes a candidate
//! for the global top-K (ranked by length-normalised distance). For pairs
//! that survive in the top-K, we snapshot the partial distance profiles of
//! both members *at the pair's length*, so the motif-set expansion
//! (Algorithm 6) can later reuse them instead of recomputing.

use valmod_mp::distance::length_normalize;
use valmod_mp::ProfiledSeries;

use crate::profile::PartialProfile;

/// A snapshot of one partial distance profile at a specific length.
#[derive(Debug, Clone)]
pub struct PartialSnapshot {
    /// Profile owner offset.
    pub owner: usize,
    /// Length the snapshot was taken at.
    pub l: usize,
    /// The `maxLB` threshold at that length: every subsequence *not* listed
    /// in `neighbors` is at distance ≥ this from the owner.
    pub max_lb: f64,
    /// `(neighbour offset, true distance)` for each retained valid entry,
    /// ascending by neighbour offset: the snapshot does not depend on the
    /// profile's heap layout, which varies with the thread count and with
    /// how the profile was advanced.
    pub neighbors: Vec<(usize, f64)>,
}

impl PartialSnapshot {
    /// Takes a snapshot of `prof`, which must currently be advanced to `l`.
    pub fn capture(ps: &ProfiledSeries, prof: &PartialProfile, l: usize) -> Self {
        debug_assert_eq!(prof.current_l, l);
        let mut neighbors: Vec<(usize, f64)> = (prof.entries().iter())
            .filter(|e| e.is_live())
            .map(|e| (e.neighbor(), prof.entry_dist(ps, e)))
            .collect();
        neighbors.sort_unstable_by_key(|&(neighbor, _)| neighbor);
        PartialSnapshot {
            owner: prof.owner,
            l,
            max_lb: prof.max_lb_at(ps.std(prof.owner, l)),
            neighbors,
        }
    }
}

/// A top-K candidate: a motif pair plus the snapshots of its two members.
#[derive(Debug, Clone)]
pub struct PairCandidate {
    /// First offset (≤ `b`).
    pub a: usize,
    /// Second offset.
    pub b: usize,
    /// Subsequence length.
    pub l: usize,
    /// Raw z-normalised distance.
    pub dist: f64,
    /// Length-normalised distance (the ranking key).
    pub norm_dist: f64,
    /// Snapshot of `a`'s partial profile at length `l`.
    pub part_a: PartialSnapshot,
    /// Snapshot of `b`'s partial profile at length `l`.
    pub part_b: PartialSnapshot,
}

/// A bounded, ascending-ordered set of the K best pairs seen so far,
/// deduplicated on `(a, b)` offsets (keeping the better length).
#[derive(Debug, Clone)]
pub struct BestKPairs {
    k: usize,
    /// Sorted ascending by `norm_dist`.
    pairs: Vec<PairCandidate>,
}

impl BestKPairs {
    /// Creates an empty tracker for the `k` best pairs.
    pub fn new(k: usize) -> Self {
        BestKPairs { k, pairs: Vec::with_capacity(k.min(64)) }
    }

    /// The capacity K.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Current number of tracked pairs.
    #[inline]
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether no pair is tracked yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// The tracked pairs, best (smallest `norm_dist`) first.
    #[inline]
    pub fn pairs(&self) -> &[PairCandidate] {
        &self.pairs
    }

    /// Bulk-loads pre-ranked candidates (ascending `norm_dist`), truncating
    /// to K. Used by the bench harness to restrict a full tracker to a
    /// smaller K without re-running VALMOD.
    pub fn extend_sorted(&mut self, candidates: Vec<PairCandidate>) {
        debug_assert!(candidates.windows(2).all(|w| w[0].norm_dist <= w[1].norm_dist));
        self.pairs.extend(candidates);
        self.pairs.sort_by(|a, b| a.norm_dist.total_cmp(&b.norm_dist));
        self.pairs.truncate(self.k);
    }

    /// Offers a pair built from an improving VALMP slot. Builds the
    /// snapshots only when the pair actually enters the top-K.
    pub fn offer(
        &mut self,
        ps: &ProfiledSeries,
        off1: usize,
        off2: usize,
        dist: f64,
        l: usize,
        partials: &[PartialProfile],
    ) {
        if self.k == 0 {
            return;
        }
        let (a, b) = if off1 <= off2 { (off1, off2) } else { (off2, off1) };
        let norm_dist = length_normalize(dist, l);
        // Dedup: a pair of offsets appears once, at its best length.
        if let Some(pos) = self.pairs.iter().position(|p| p.a == a && p.b == b) {
            if self.pairs[pos].norm_dist <= norm_dist {
                return;
            }
            self.pairs.remove(pos);
        } else if self.pairs.len() >= self.k
            && self.pairs.last().is_some_and(|w| w.norm_dist <= norm_dist)
        {
            return; // full and not better than the worst
        }
        let cand = PairCandidate {
            a,
            b,
            l,
            dist,
            norm_dist,
            part_a: PartialSnapshot::capture(ps, &partials[a], l),
            part_b: PartialSnapshot::capture(ps, &partials[b], l),
        };
        let pos = self.pairs.partition_point(|p| p.norm_dist <= norm_dist);
        self.pairs.insert(pos, cand);
        self.pairs.truncate(self.k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute_mp::compute_matrix_profile;
    use valmod_data::generators::random_walk;
    use valmod_mp::ExclusionPolicy;

    fn fixture() -> (ProfiledSeries, Vec<PartialProfile>) {
        let ps = ProfiledSeries::from_values(&random_walk(200, 9)).unwrap();
        let state = compute_matrix_profile(&ps, 16, 4, ExclusionPolicy::HALF).unwrap();
        (ps, state.partials)
    }

    #[test]
    fn tracker_keeps_k_best_sorted() {
        let (ps, partials) = fixture();
        let mut best = BestKPairs::new(2);
        best.offer(&ps, 0, 100, 8.0, 16, &partials);
        best.offer(&ps, 10, 120, 4.0, 16, &partials);
        best.offer(&ps, 20, 140, 6.0, 16, &partials);
        assert_eq!(best.len(), 2);
        assert_eq!(best.pairs()[0].dist, 4.0);
        assert_eq!(best.pairs()[1].dist, 6.0);
    }

    #[test]
    fn tracker_dedups_on_offsets() {
        let (ps, partials) = fixture();
        let mut best = BestKPairs::new(4);
        best.offer(&ps, 100, 0, 8.0, 16, &partials);
        best.offer(&ps, 0, 100, 6.0, 16, &partials); // same pair, better
        assert_eq!(best.len(), 1);
        assert_eq!(best.pairs()[0].dist, 6.0);
        best.offer(&ps, 0, 100, 7.0, 16, &partials); // same pair, worse
        assert_eq!(best.pairs()[0].dist, 6.0);
    }

    #[test]
    fn snapshot_lists_valid_neighbors_with_distances() {
        let (ps, partials) = fixture();
        let snap = PartialSnapshot::capture(&ps, &partials[50], 16);
        assert_eq!(snap.owner, 50);
        assert!(!snap.neighbors.is_empty());
        assert!(snap.neighbors.windows(2).all(|w| w[0].0 < w[1].0), "sorted by neighbour");
        for &(n, d) in &snap.neighbors {
            assert!(n < ps.num_subsequences(16));
            assert!(d.is_finite() && d >= 0.0);
        }
    }

    #[test]
    fn zero_k_tracker_accepts_nothing() {
        let (ps, partials) = fixture();
        let mut best = BestKPairs::new(0);
        best.offer(&ps, 0, 100, 1.0, 16, &partials);
        assert!(best.is_empty());
    }
}
