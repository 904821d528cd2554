//! Variable-length motif sets (paper §5, Algorithm 6 and Definition 2.6).
//!
//! Each top-K pair `(a, b)` of length ℓ is expanded to the set of
//! subsequences within radius `r = D · dist(a, b)` of either member. When a
//! member's snapshot threshold `maxLB` exceeds `r`, every subsequence within
//! the radius is provably among the retained entries and no recomputation is
//! needed; otherwise the full distance profile is recomputed in range.
//! Trivial matches are removed and sets are kept pairwise disjoint
//! (Problem 2's constraint).

use std::collections::HashSet;

use valmod_mp::distance_profile::self_distance_profile;
use valmod_mp::exclusion::ExclusionPolicy;
use valmod_mp::ProfiledSeries;

use crate::pairs::{BestKPairs, PairCandidate, PartialSnapshot};

/// One member of a motif set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SetMember {
    /// Subsequence offset.
    pub offset: usize,
    /// Distance to the nearer of the two set centres.
    pub dist: f64,
}

/// A motif set `S_r^ℓ` (Definition 2.6).
#[derive(Debug, Clone)]
pub struct MotifSet {
    /// Subsequence length ℓ.
    pub l: usize,
    /// The founding motif pair (set centres).
    pub pair: (usize, usize),
    /// Distance of the founding pair.
    pub pair_dist: f64,
    /// The radius `r = D · pair_dist` used for expansion.
    pub radius: f64,
    /// Members, including the centres, sorted by distance to a centre.
    pub members: Vec<SetMember>,
}

impl MotifSet {
    /// The set's frequency `|S_r^ℓ|` (Definition 2.6).
    #[inline]
    pub fn frequency(&self) -> usize {
        self.members.len()
    }
}

/// Statistics about how the expansion was served (drives the Fig. 15
/// discussion about partial-profile reuse).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SetStats {
    /// Member lists served entirely from snapshots.
    pub served_from_snapshots: usize,
    /// Member lists that required a full distance-profile recomputation.
    pub recomputed_profiles: usize,
}

/// Expands the top-K pairs into disjoint variable-length motif sets
/// (paper Algorithm 6). `d_factor` is the user's radius factor `D`.
pub fn compute_var_length_motif_sets(
    ps: &ProfiledSeries,
    best: &BestKPairs,
    d_factor: f64,
    policy: ExclusionPolicy,
) -> (Vec<MotifSet>, SetStats) {
    let mut stats = SetStats::default();
    let mut claimed: HashSet<(usize, usize)> = HashSet::new();
    let mut sets = Vec::with_capacity(best.len());
    for pair in best.pairs() {
        let r = pair.dist * d_factor;
        let mut members = Vec::new();
        for snap in [&pair.part_a, &pair.part_b] {
            members.extend(member_candidates(ps, pair, snap, r, policy, &mut stats));
        }
        // The centres belong to the set by definition (distance 0 to
        // themselves).
        members.push(SetMember { offset: pair.a, dist: 0.0 });
        members.push(SetMember { offset: pair.b, dist: 0.0 });

        // Greedy trivial-match removal: best (closest) members claim their
        // exclusion zone first. Equal distances order by offset, so the
        // result does not depend on the order snapshots list neighbours in.
        members.sort_by(|x, y| x.dist.total_cmp(&y.dist).then(x.offset.cmp(&y.offset)));
        let radius = policy.radius(pair.l);
        let mut kept: Vec<SetMember> = Vec::new();
        for m in members {
            if claimed.contains(&(m.offset, pair.l)) {
                continue; // already in an earlier motif set (disjointness)
            }
            if kept.iter().any(|k| k.offset.abs_diff(m.offset) < radius) {
                continue; // trivial match of a better member
            }
            kept.push(m);
        }
        for m in &kept {
            claimed.insert((m.offset, pair.l));
        }
        sets.push(MotifSet {
            l: pair.l,
            pair: (pair.a, pair.b),
            pair_dist: pair.dist,
            radius: r,
            members: kept,
        });
    }
    (sets, stats)
}

/// Candidates within radius `r` of one centre: from the snapshot when its
/// `maxLB` certifies completeness, otherwise from a recomputed profile
/// (paper Algorithm 6, lines 6–19).
fn member_candidates(
    ps: &ProfiledSeries,
    pair: &PairCandidate,
    snap: &PartialSnapshot,
    r: f64,
    policy: ExclusionPolicy,
    stats: &mut SetStats,
) -> Vec<SetMember> {
    if snap.max_lb > r {
        // Every subsequence not in the snapshot is at distance ≥ maxLB > r,
        // so the snapshot lists all candidates.
        stats.served_from_snapshots += 1;
        snap.neighbors
            .iter()
            .filter(|&&(_, d)| d < r)
            .map(|&(offset, dist)| SetMember { offset, dist })
            .collect()
    } else {
        stats.recomputed_profiles += 1;
        let dp = self_distance_profile(ps, snap.owner, pair.l, &policy);
        dp.iter()
            .enumerate()
            .filter(|&(_, &d)| d.is_finite() && d < r)
            .map(|(offset, &dist)| SetMember { offset, dist })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::valmod::{Valmod, ValmodConfig};
    use valmod_data::generators::plant_motif;
    use valmod_data::series::Series;

    fn run(seed: u64, d: f64, k: usize) -> (Vec<MotifSet>, SetStats) {
        let (series, _) = plant_motif(3000, 50, 4, 0.05, seed);
        let series = Series::new(series).unwrap();
        let cfg = ValmodConfig::new(45, 55).with_p(8).with_pair_tracking(k);
        let out = Valmod::from_config(cfg).run(&series).unwrap();
        let ps = valmod_mp::ProfiledSeries::new(&series);
        compute_var_length_motif_sets(
            &ps,
            out.best_pairs.as_ref().unwrap(),
            d,
            ExclusionPolicy::HALF,
        )
    }

    #[test]
    fn planted_instances_join_the_top_set() {
        let (sets, _) = run(3, 3.0, 5);
        assert!(!sets.is_empty());
        // Four planted instances ⇒ the top set should have frequency ≥ 3
        // (one may be claimed by a competing set or shifted slightly).
        assert!(sets[0].frequency() >= 3, "top set frequency {}", sets[0].frequency());
    }

    #[test]
    fn members_are_within_radius_and_non_trivial() {
        let (sets, _) = run(5, 4.0, 4);
        for s in &sets {
            let radius = ExclusionPolicy::HALF.radius(s.l);
            for m in &s.members {
                assert!(m.dist < s.radius, "member at {} outside radius", m.offset);
            }
            for (x, a) in s.members.iter().enumerate() {
                for b in &s.members[x + 1..] {
                    assert!(
                        a.offset.abs_diff(b.offset) >= radius,
                        "trivial match {} / {} in set",
                        a.offset,
                        b.offset
                    );
                }
            }
        }
    }

    #[test]
    fn sets_are_pairwise_disjoint() {
        let (sets, _) = run(7, 5.0, 8);
        let mut seen = HashSet::new();
        for s in &sets {
            for m in &s.members {
                assert!(seen.insert((m.offset, s.l)), "subsequence in two sets");
            }
        }
    }

    #[test]
    fn larger_radius_factor_never_shrinks_the_top_set() {
        let (small, _) = run(9, 2.0, 1);
        let (large, _) = run(9, 6.0, 1);
        assert!(large[0].frequency() >= small[0].frequency());
    }

    #[test]
    fn snapshot_order_does_not_change_the_sets() {
        // Snapshots list neighbours in heap order, which depends on the
        // order the harvest offered them. Here two neighbours tie at 0.5
        // and are trivial matches of each other, so the greedy removal
        // keeps exactly one of them: it must be the same one (the smaller
        // offset) whatever the listing order.
        let ps =
            valmod_mp::ProfiledSeries::from_values(&valmod_data::generators::random_walk(400, 31))
                .unwrap();
        let (l, dist) = (16, 1.0);
        let snapshot = |owner: usize, neighbors: Vec<(usize, f64)>| PartialSnapshot {
            owner,
            l,
            max_lb: f64::INFINITY,
            neighbors,
        };
        let tied = vec![(200, 0.5), (205, 0.5), (300, 0.7), (150, 1.2)];
        // Listing orders: as given, reversed, rotated by one.
        let sets_for = |order: usize| {
            let (mut na, mut nb) = (tied.clone(), vec![(260, 0.9), (266, 0.9), (330, 0.2)]);
            for v in [&mut na, &mut nb] {
                match order {
                    0 => {}
                    1 => v.reverse(),
                    _ => v.rotate_left(1),
                }
            }
            let mut best = BestKPairs::new(1);
            best.extend_sorted(vec![PairCandidate {
                a: 0,
                b: 100,
                l,
                dist,
                norm_dist: dist,
                part_a: snapshot(0, na),
                part_b: snapshot(100, nb),
            }]);
            let (sets, stats) =
                compute_var_length_motif_sets(&ps, &best, 1.5, ExclusionPolicy::HALF);
            assert_eq!(stats.served_from_snapshots, 2);
            sets[0].members.iter().map(|m| (m.offset, m.dist.to_bits())).collect::<Vec<_>>()
        };
        let forward = sets_for(0);
        assert!(forward.iter().any(|&(o, _)| o == 200) && !forward.iter().any(|&(o, _)| o == 205));
        assert_eq!(sets_for(1), forward);
        assert_eq!(sets_for(2), forward);
    }

    #[test]
    fn stats_account_for_every_expansion() {
        let (sets, stats) = run(11, 3.0, 6);
        assert_eq!(
            stats.served_from_snapshots + stats.recomputed_profiles,
            2 * sets.len(),
            "each set expands exactly two centres"
        );
    }
}
