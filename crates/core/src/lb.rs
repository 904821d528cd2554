//! The VALMOD lower-bounding distance (paper §4.1, Eq. 2).
//!
//! Given the distance between `T_{i,ℓ}` and `T_{j,ℓ}` (through their Pearson
//! correlation `q`), Eq. 2 bounds the z-normalised distance between the
//! *extended* subsequences `T_{i,ℓ+k}` and `T_{j,ℓ+k}` from below, treating
//! the unknown trailing values of `T_{i,ℓ+k}` adversarially:
//!
//! ```text
//! LB(d_{i,j}^{ℓ+k}) = sqrt(ℓ)            · σ_{j,ℓ}/σ_{j,ℓ+k}   if q ≤ 0
//! LB(d_{i,j}^{ℓ+k}) = sqrt(ℓ(1 − q²))    · σ_{j,ℓ}/σ_{j,ℓ+k}   otherwise
//! ```
//!
//! The only `k`-dependent factor is `1/σ_{j,ℓ+k}`, shared by every entry of
//! distance profile `j` — so sorting entries by the *anchor part*
//! `sqrt(ℓ·key)` (with `key = 1` or `1 − q²`) preserves their LB ranking for
//! every future length. That rank-preservation is what lets VALMOD keep only
//! the `p` smallest-LB entries per profile.

/// The length-independent part of Eq. 2, squared: `ℓ` when `q ≤ 0`, else
/// `ℓ(1 − q²)`. Squaring avoids a sqrt in the harvesting hot loop; ordering
/// is unchanged.
#[inline]
pub fn lb_key(q: f64, l: usize) -> f64 {
    let lf = l as f64;
    if q <= 0.0 {
        lf
    } else {
        let q = q.min(1.0);
        (lf * (1.0 - q * q)).max(0.0)
    }
}

/// The anchor lower-bound value `sqrt(lb_key)` (the LB before the σ-ratio).
#[inline]
pub fn lb_base(q: f64, l: usize) -> f64 {
    lb_key(q, l).sqrt()
}

/// Scales an anchor LB to a longer subsequence length: `lb_base · σ_anchor/σ_new`.
///
/// When the profile owner becomes flat at the new length (`σ_new ≈ 0`), every
/// distance involving it collapses to the flat convention and the analytic
/// bound no longer applies; returning 0 keeps the bound admissible.
#[inline]
pub fn lb_scale(lb_base: f64, sigma_anchor: f64, sigma_new: f64) -> f64 {
    if sigma_new <= 0.0 || sigma_anchor <= 0.0 {
        0.0
    } else {
        lb_base * (sigma_anchor / sigma_new)
    }
}

/// The σ-ratio `σ_anchor/σ_new` that [`lb_scale`] applies, shared by every
/// entry of one profile, so a row hoists it: for a finite `lb_base`,
/// `lb_base * sigma_ratio(a, n)` has the bits of `lb_scale(lb_base, a, n)`
/// (0 when either σ is not positive).
#[inline]
pub fn sigma_ratio(sigma_anchor: f64, sigma_new: f64) -> f64 {
    if sigma_new <= 0.0 || sigma_anchor <= 0.0 {
        0.0
    } else {
        sigma_anchor / sigma_new
    }
}

/// Tightness of the lower bound, `TLB = LB/dist ∈ [0, 1]` (paper §6.2,
/// Fig. 10; 1 = perfectly tight). Zero distance yields TLB 1 by convention
/// (the bound cannot be beaten there).
#[inline]
pub fn tightness(lb: f64, dist: f64) -> f64 {
    if dist <= 0.0 {
        1.0
    } else {
        (lb / dist).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use valmod_data::generators::random_walk;
    use valmod_mp::distance::zdist_naive;

    /// Direct evaluation of Eq. 2 for a concrete pair, used as the oracle:
    /// the LB from length `l` must never exceed the true distance at `l + k`.
    fn check_admissible(series: &[f64], i: usize, j: usize, l: usize, k_max: usize) {
        let sub = |o: usize, len: usize| &series[o..o + len];
        let stats = |x: &[f64]| {
            let m = x.iter().sum::<f64>() / x.len() as f64;
            let v = x.iter().map(|&v| (v - m) * (v - m)).sum::<f64>() / x.len() as f64;
            (m, v.sqrt())
        };
        let a = sub(i, l);
        let b = sub(j, l);
        let (ma, sa) = stats(a);
        let (mb, sb) = stats(b);
        let qt: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
        let q = ((qt / l as f64 - ma * mb) / (sa * sb)).clamp(-1.0, 1.0);
        let base = lb_base(q, l);
        for k in 1..=k_max {
            let (_, sb_new) = stats(sub(j, l + k));
            let lb = lb_scale(base, sb, sb_new);
            let true_dist = zdist_naive(sub(i, l + k), sub(j, l + k));
            assert!(
                lb <= true_dist + 1e-7,
                "LB {lb} exceeds true distance {true_dist} (i={i}, j={j}, l={l}, k={k})"
            );
        }
    }

    #[test]
    fn lower_bound_is_admissible_on_random_walks() {
        let series = random_walk(600, 77);
        for &(i, j) in &[(0usize, 300usize), (50, 400), (123, 456), (10, 30)] {
            check_admissible(&series, i, j, 32, 64);
        }
    }

    #[test]
    fn lower_bound_is_admissible_on_structured_data() {
        let series: Vec<f64> =
            (0..600).map(|t| (t as f64 * 0.07).sin() * 2.0 + (t as f64 * 0.013).cos()).collect();
        for &(i, j) in &[(0usize, 200usize), (17, 350), (80, 500)] {
            check_admissible(&series, i, j, 24, 48);
        }
    }

    #[test]
    fn negative_correlation_uses_sqrt_l() {
        assert!((lb_base(-0.5, 16) - 4.0).abs() < 1e-12);
        assert!((lb_base(0.0, 16) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn perfect_correlation_gives_zero_bound() {
        assert_eq!(lb_base(1.0, 16), 0.0);
        // And q slightly above 1 from rounding must not produce NaN.
        assert_eq!(lb_base(1.0 + 1e-12, 16), 0.0);
    }

    #[test]
    fn key_ordering_matches_base_ordering() {
        let l = 32;
        let qs = [-0.9, -0.1, 0.0, 0.3, 0.7, 0.99];
        for w in qs.windows(2) {
            let (k0, k1) = (lb_key(w[0], l), lb_key(w[1], l));
            let (b0, b1) = (lb_base(w[0], l), lb_base(w[1], l));
            assert_eq!(k0 >= k1, b0 >= b1, "key and base orderings must agree");
        }
    }

    #[test]
    fn scale_handles_flat_sigmas() {
        for (a, n) in [(1.0, 0.0), (0.0, 1.0), (2.0, 4.0), (2.0, 1.0), (1.7, 2.3)] {
            for base in [0.0, 0.3, 5.0] {
                let hoisted = base * sigma_ratio(a, n);
                assert_eq!(hoisted.to_bits(), lb_scale(base, a, n).to_bits(), "{base} {a} {n}");
            }
        }
        assert_eq!(lb_scale(5.0, 1.0, 0.0), 0.0);
        assert_eq!(lb_scale(5.0, 0.0, 1.0), 0.0);
        assert!((lb_scale(5.0, 2.0, 4.0) - 2.5).abs() < 1e-12);
        // σ can shrink with length, making the bound *grow* — the property
        // §6.2 credits for VALMOD's advantage over MOEN.
        assert!(lb_scale(5.0, 2.0, 1.0) > 5.0);
    }

    #[test]
    fn tightness_is_clamped_ratio() {
        assert_eq!(tightness(2.0, 4.0), 0.5);
        assert_eq!(tightness(5.0, 4.0), 1.0);
        assert_eq!(tightness(1.0, 0.0), 1.0);
        assert_eq!(tightness(0.0, 3.0), 0.0);
    }
}
