//! Variable-length discords — the paper's §8 extension, realised on top of
//! VALMP.
//!
//! A fixed-length discord is the subsequence with the *largest*
//! nearest-neighbour distance. With VALMP we can rank anomalies across a
//! length range: an offset's variable-length discord score is the largest
//! length-normalised NN distance it attains at its best-matching length —
//! i.e. offsets whose *best possible* match across all lengths is still far
//! are anomalous at every scale.

use valmod_mp::exclusion::ExclusionPolicy;

use crate::valmp::Valmp;

/// A variable-length discord.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariableLengthDiscord {
    /// Offset of the anomalous subsequence.
    pub offset: usize,
    /// The length at which its best match was found.
    pub l: usize,
    /// Its nearest neighbour at that length.
    pub nn: usize,
    /// The length-normalised NN distance (large ⇒ anomalous at all scales).
    pub score: f64,
}

/// Extracts the top-`k` variable-length discords from a VALMP, suppressing
/// the exclusion zone (at each hit's own length) around reported offsets.
pub fn variable_length_discords(
    valmp: &Valmp,
    k: usize,
    policy: ExclusionPolicy,
) -> Vec<VariableLengthDiscord> {
    let mut slots: Vec<usize> =
        (0..valmp.len()).filter(|&i| valmp.norm_distances[i].is_finite()).collect();
    // Descending by normalised NN distance.
    slots.sort_by(|&x, &y| valmp.norm_distances[y].total_cmp(&valmp.norm_distances[x]));
    let mut out: Vec<VariableLengthDiscord> = Vec::new();
    for &i in &slots {
        if out.len() >= k {
            break;
        }
        let l = valmp.length(i);
        let radius = policy.radius(l);
        if out.iter().any(|d| d.offset.abs_diff(i) < radius.max(policy.radius(d.l))) {
            continue;
        }
        out.push(VariableLengthDiscord {
            offset: i,
            l,
            nn: valmp.neighbor(i),
            score: valmp.norm_distances[i],
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::valmod::{Valmod, ValmodConfig};
    use valmod_data::generators::sine_mixture;
    use valmod_data::series::Series;

    #[test]
    fn corrupted_region_is_the_top_variable_length_discord() {
        let mut values = sine_mixture(2000, &[(0.02, 1.0)], 0.01, 3);
        for (k, v) in values[1200..1260].iter_mut().enumerate() {
            *v += ((k * 7 % 11) as f64 - 5.0) * 0.7;
        }
        let series = Series::new(values).unwrap();
        let out = Valmod::from_config(ValmodConfig::new(40, 56).with_p(5)).run(&series).unwrap();
        let discords = variable_length_discords(&out.valmp, 1, ExclusionPolicy::HALF);
        assert_eq!(discords.len(), 1);
        let d = discords[0];
        assert!(
            (1150..=1260).contains(&d.offset),
            "variable-length discord at {} should hit the corrupted region",
            d.offset
        );
        assert!(d.l >= 40 && d.l <= 56);
    }

    #[test]
    fn discords_are_ranked_and_non_overlapping() {
        let values = sine_mixture(1500, &[(0.03, 1.0)], 0.1, 9);
        let series = Series::new(values).unwrap();
        let out = Valmod::from_config(ValmodConfig::new(30, 40).with_p(5)).run(&series).unwrap();
        let discords = variable_length_discords(&out.valmp, 4, ExclusionPolicy::HALF);
        for w in discords.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
        for (x, a) in discords.iter().enumerate() {
            for b in &discords[x + 1..] {
                assert!(a.offset.abs_diff(b.offset) >= ExclusionPolicy::HALF.radius(a.l.min(b.l)));
            }
        }
    }
}
