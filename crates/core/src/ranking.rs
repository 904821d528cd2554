//! Ranking motifs of different lengths (paper §3).
//!
//! The VALMP already stores length-normalised distances; this module turns
//! it into a user-facing ranked list of *distinct* variable-length motifs,
//! suppressing overlap so the list reads like the paper's Fig. 1 ("the
//! 10-second motif and the 12-second motif"), and provides the three
//! candidate length corrections compared in Fig. 2.

use valmod_mp::exclusion::ExclusionPolicy;
use valmod_mp::motif::MotifPair;

use crate::valmp::Valmp;

/// The candidate corrections compared in the paper's Fig. 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LengthCorrection {
    /// No correction: plain Euclidean distance (biased to short lengths).
    None,
    /// Divide by the length (biased to long lengths, like the
    /// length-normalised edit distance).
    DivideByLength,
    /// Multiply by `sqrt(1/ℓ)` — the paper's choice, near length-invariant.
    SqrtInverse,
}

impl LengthCorrection {
    /// Applies the correction to a distance at length `l`.
    #[inline]
    pub fn apply(self, dist: f64, l: usize) -> f64 {
        match self {
            LengthCorrection::None => dist,
            LengthCorrection::DivideByLength => dist / l as f64,
            LengthCorrection::SqrtInverse => dist * (1.0 / l as f64).sqrt(),
        }
    }
}

/// Extracts the top-`k` distinct variable-length motifs from a VALMP,
/// ranked by length-normalised distance. Offsets within the exclusion
/// radius (at each motif's own length) of an already-reported motif are
/// suppressed.
pub fn top_variable_length_motifs(
    valmp: &Valmp,
    k: usize,
    policy: ExclusionPolicy,
) -> Vec<MotifPair> {
    let mut slots: Vec<usize> =
        (0..valmp.len()).filter(|&i| valmp.norm_distances[i].is_finite()).collect();
    slots.sort_by(|&x, &y| valmp.norm_distances[x].total_cmp(&valmp.norm_distances[y]));

    let mut out: Vec<MotifPair> = Vec::new();
    for &i in &slots {
        if out.len() >= k {
            break;
        }
        let pair = valmp.pair(i);
        let radius = policy.radius(pair.l);
        let clashes = out.iter().any(|m| {
            let r = radius.max(policy.radius(m.l));
            m.a.abs_diff(pair.a) < r
                || m.a.abs_diff(pair.b) < r
                || m.b.abs_diff(pair.a) < r
                || m.b.abs_diff(pair.b) < r
        });
        if !clashes {
            out.push(pair);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrections_match_formulas() {
        assert_eq!(LengthCorrection::None.apply(8.0, 16), 8.0);
        assert_eq!(LengthCorrection::DivideByLength.apply(8.0, 16), 0.5);
        assert!((LengthCorrection::SqrtInverse.apply(8.0, 16) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn ranking_suppresses_overlapping_motifs() {
        let mut v = Valmp::new(40);
        // Slot 0 pairs with 20 at distance 1 (length 10); slot 1 (overlapping
        // slot 0) pairs with 21 at distance 1.5; slot 30 pairs with 10 at 2.
        v.update(
            &{
                let mut mp = vec![f64::INFINITY; 40];
                mp[0] = 1.0;
                mp[1] = 1.5;
                mp[30] = 2.0;
                mp
            },
            &{
                let mut ip = vec![usize::MAX; 40];
                ip[0] = 20;
                ip[1] = 21;
                ip[30] = 10;
                ip
            },
            10,
        );
        let motifs = top_variable_length_motifs(&v, 5, ExclusionPolicy::HALF);
        // Slot 1 overlaps slot 0 (radius 5) and must be suppressed; slot 30's
        // pair member 10 is far enough from 0 and 20.
        assert_eq!(motifs.len(), 2);
        assert_eq!((motifs[0].a, motifs[0].b), (0, 20));
        assert_eq!((motifs[1].a, motifs[1].b), (10, 30));
    }

    #[test]
    fn mirrored_pairs_are_reported_once() {
        let mut v = Valmp::new(30);
        let mut mp = vec![f64::INFINITY; 30];
        let mut ip = vec![usize::MAX; 30];
        mp[2] = 1.0;
        ip[2] = 25;
        mp[25] = 1.0;
        ip[25] = 2;
        v.update(&mp, &ip, 8);
        let motifs = top_variable_length_motifs(&v, 5, ExclusionPolicy::HALF);
        assert_eq!(motifs.len(), 1, "the symmetric slot must be suppressed");
    }
}
