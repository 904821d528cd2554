//! The single validation path for degenerate configurations.
//!
//! Every public range-based entry point — the VALMOD driver, the baseline
//! comparators (STOMP-per-length, brute force, MOEN, QuickMotif), and the
//! CLI — funnels its parameters through [`validate_length_range`], so a
//! zero-length series, an inverted range, or a range longer than the series
//! yields one consistent [`ValmodError`] instead of per-call-site panics or
//! silently empty results.

use valmod_data::error::{Result, ValmodError};

/// Validates a subsequence-length range against a series of `n` points.
///
/// Rejects, in order:
/// * `n == 0` — a zero-length series ([`ValmodError::TooShort`]);
/// * `l_min == 0` or `l_min > l_max` — a degenerate range
///   ([`ValmodError::InvalidParameter`]);
/// * fewer than two subsequences at `l_max` (`l_max > n − 1`) — no pair
///   exists to compare ([`ValmodError::TooShort`]);
/// * `n ≥ 2³²` — offsets and lengths are held as `u32` in `listDP` and the
///   VALMP ([`ValmodError::InvalidParameter`]).
pub fn validate_length_range(n: usize, l_min: usize, l_max: usize) -> Result<()> {
    if n == 0 {
        return Err(ValmodError::TooShort { len: 0, required: l_max.max(1) + 1 });
    }
    if u32::try_from(n).is_err() {
        return Err(ValmodError::InvalidParameter(format!(
            "series of {n} points: at most {} are supported",
            u32::MAX
        )));
    }
    if l_min == 0 || l_min > l_max {
        return Err(ValmodError::InvalidParameter(format!(
            "invalid length range [{l_min}, {l_max}]"
        )));
    }
    if l_max + 1 > n {
        return Err(ValmodError::TooShort { len: n, required: l_max + 1 });
    }
    Ok(())
}

/// [`validate_length_range`] plus the VALMOD-specific knob `p` (retained
/// lower-bound entries per profile), which must be positive.
pub fn validate_valmod_params(n: usize, l_min: usize, l_max: usize, p: usize) -> Result<()> {
    validate_length_range(n, l_min, l_max)?;
    if p == 0 {
        return Err(ValmodError::InvalidParameter("p must be positive".into()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_viable_configurations() {
        assert!(validate_length_range(100, 4, 16).is_ok());
        assert!(validate_length_range(100, 99, 99).is_ok());
        assert!(validate_valmod_params(30, 4, 5, 1).is_ok());
    }

    #[test]
    fn rejects_zero_length_series() {
        assert!(matches!(
            validate_length_range(0, 4, 16),
            Err(ValmodError::TooShort { len: 0, .. })
        ));
    }

    #[test]
    fn rejects_degenerate_ranges() {
        assert!(matches!(validate_length_range(100, 0, 16), Err(ValmodError::InvalidParameter(_))));
        assert!(matches!(
            validate_length_range(100, 20, 10),
            Err(ValmodError::InvalidParameter(_))
        ));
    }

    #[test]
    fn rejects_range_longer_than_series() {
        assert!(matches!(
            validate_length_range(50, 10, 60),
            Err(ValmodError::TooShort { len: 50, required: 61 })
        ));
        // l_max == n leaves a single subsequence: no pair to compare.
        assert!(validate_length_range(50, 10, 50).is_err());
    }

    #[test]
    fn rejects_series_beyond_u32_offsets() {
        assert!(validate_length_range(u32::MAX as usize, 4, 16).is_ok());
        if let Some(n) = (u32::MAX as usize).checked_add(1) {
            assert!(matches!(
                validate_length_range(n, 4, 16),
                Err(ValmodError::InvalidParameter(_))
            ));
        }
    }

    #[test]
    fn rejects_zero_p() {
        assert!(matches!(
            validate_valmod_params(100, 4, 16, 0),
            Err(ValmodError::InvalidParameter(_))
        ));
    }
}
