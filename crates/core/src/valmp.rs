//! VALMP — the *variable-length matrix profile* (paper Algorithm 2).
//!
//! One entry per offset of the shortest length's profile, recording the best
//! (smallest **length-normalised**, §3) nearest-neighbour match seen across
//! every length processed so far, together with the raw distance, the length
//! and the neighbour that achieved it.

use valmod_mp::distance::length_normalize;
use valmod_mp::motif::MotifPair;

/// The variable-length matrix profile.
///
/// Lengths and neighbour offsets are held as `u32` (series are validated to
/// fewer than `2³²` points), so a slot takes 24 bytes instead of 32: a
/// caller that keeps many outputs, such as a result cache, keeps a quarter
/// less. [`Valmp::length`], [`Valmp::neighbor`] and [`Valmp::pair`] read
/// them back as `usize`.
#[derive(Debug, Clone)]
pub struct Valmp {
    /// Best length-normalised distance per offset (`dist · sqrt(1/ℓ)`).
    pub norm_distances: Vec<f64>,
    /// The raw z-normalised distance of that best match.
    pub distances: Vec<f64>,
    /// The subsequence length of that best match (0 = never updated).
    pub lengths: Vec<u32>,
    /// The neighbour offset of that best match (`u32::MAX` = none).
    pub indices: Vec<u32>,
}

impl Valmp {
    /// Creates an empty VALMP with `ndp` slots (all ⊥).
    ///
    /// # Panics
    /// If `ndp` does not fit in `u32` (series of `2³²` points or more are
    /// refused by [`crate::validate::validate_length_range`]).
    pub fn new(ndp: usize) -> Self {
        assert!(u32::try_from(ndp).is_ok(), "a VALMP holds u32 offsets; {ndp} slots");
        Valmp {
            norm_distances: vec![f64::INFINITY; ndp],
            distances: vec![f64::INFINITY; ndp],
            lengths: vec![0; ndp],
            indices: vec![u32::MAX; ndp],
        }
    }

    /// The subsequence length of slot `i`'s best match (0 = never updated).
    #[inline]
    pub fn length(&self, i: usize) -> usize {
        self.lengths[i] as usize
    }

    /// The neighbour offset of slot `i`'s best match (`usize::MAX` = none).
    #[inline]
    pub fn neighbor(&self, i: usize) -> usize {
        match self.indices[i] {
            u32::MAX => usize::MAX,
            nn => nn as usize,
        }
    }

    /// Slot `i`'s best match as a pair: offset `i`, its neighbour, length
    /// and raw distance.
    #[inline]
    pub fn pair(&self, i: usize) -> MotifPair {
        MotifPair::new(i, self.neighbor(i), self.length(i), self.distances[i])
    }

    /// Number of slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.norm_distances.len()
    }

    /// Whether the VALMP has no slots.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.norm_distances.is_empty()
    }

    /// Folds a (possibly partial) matrix profile of length `l` into the
    /// VALMP (paper Algorithm 2). `NaN` entries (⊥, unknown) and `+∞`
    /// entries (no valid neighbour) are skipped. Returns the offsets whose
    /// best match improved — the hook the motif-set pair tracker uses
    /// (Algorithm 5).
    ///
    /// Note: the paper's pseudocode (Alg. 2 line 3) literally compares
    /// `VALMP.distances[i] > lNormDist`, mixing raw and normalised units;
    /// the surrounding text makes clear the intent is the length-normalised
    /// comparison, which is what we implement (normalised vs normalised).
    pub fn update(&mut self, mp: &[f64], ip: &[usize], l: usize) -> Vec<usize> {
        let mut improved = Vec::new();
        for (i, (&d, &nn)) in mp.iter().zip(ip).enumerate() {
            if !d.is_finite() {
                continue;
            }
            let norm = length_normalize(d, l);
            if norm < self.norm_distances[i] {
                self.norm_distances[i] = norm;
                self.distances[i] = d;
                self.lengths[i] = u32::try_from(l).expect("lengths are below the u32 series bound");
                self.indices[i] = match nn {
                    usize::MAX => u32::MAX,
                    nn => u32::try_from(nn).expect("offsets are below the u32 series bound"),
                };
                improved.push(i);
            }
        }
        improved
    }

    /// The single best variable-length motif pair recorded so far.
    pub fn best_pair(&self) -> Option<MotifPair> {
        let mut best: Option<usize> = None;
        for i in 0..self.len() {
            if self.norm_distances[i].is_finite()
                && best.is_none_or(|b| self.norm_distances[i] < self.norm_distances[b])
            {
                best = Some(i);
            }
        }
        best.map(|i| self.pair(i))
    }

    /// Iterates over the populated (finite) slots as `(offset, pair)`.
    pub fn iter_pairs(&self) -> impl Iterator<Item = (usize, MotifPair)> + '_ {
        (0..self.len())
            .filter(|&i| self.norm_distances[i].is_finite())
            .map(move |i| (i, self.pair(i)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_keeps_the_smaller_normalized_distance() {
        let mut v = Valmp::new(3);
        // Length 4: distances [2, 4, 8] → normalised [1, 2, 4].
        let improved = v.update(&[2.0, 4.0, 8.0], &[1, 2, 0], 4);
        assert_eq!(improved, vec![0, 1, 2]);
        // Length 16: distance 4 normalises to 1 — not better than slot 0's 1
        // (strict improvement required) but better than slot 1's 2.
        let improved = v.update(&[4.0, 4.0, 100.0], &[2, 0, 1], 16);
        assert_eq!(improved, vec![1]);
        assert_eq!(v.lengths, vec![4, 16, 4]);
        assert_eq!(v.distances, vec![2.0, 4.0, 8.0]);
    }

    #[test]
    fn update_skips_nan_and_infinite() {
        let mut v = Valmp::new(3);
        let improved = v.update(&[f64::NAN, f64::INFINITY, 1.0], &[9, 9, 0], 4);
        assert_eq!(improved, vec![2]);
        assert_eq!(v.lengths, vec![0, 0, 4]);
    }

    #[test]
    fn best_pair_uses_normalized_ranking() {
        let mut v = Valmp::new(2);
        v.update(&[3.0, f64::INFINITY], &[1, usize::MAX], 9); // norm 1.0
        v.update(&[f64::NAN, 2.0], &[usize::MAX, 0], 16); // norm 0.5
        let best = v.best_pair().unwrap();
        assert_eq!(best.l, 16);
        assert_eq!((best.a, best.b), (0, 1));
        assert_eq!(best.dist, 2.0);
        // A slot never updated reads back as no neighbour at length 0.
        let empty = Valmp::new(1);
        assert_eq!((empty.neighbor(0), empty.length(0)), (usize::MAX, 0));
    }

    #[test]
    fn empty_valmp_has_no_best_pair() {
        assert!(Valmp::new(5).best_pair().is_none());
        assert_eq!(Valmp::new(5).iter_pairs().count(), 0);
    }
}
