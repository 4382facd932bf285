//! Numeric guards: turn silent floating-point junk into typed errors.
//!
//! The Q-lattice recursions fail in characteristic ways — cells underflow
//! to zero, ratios of underflowed cells become `NaN`, and accumulated
//! round-off can push a probability slightly outside `[0, 1]`. Upstream
//! code historically surfaced these as nonsense measures; every solve
//! instead runs its computed measures through these guards and reports a
//! violation as a typed backend failure.

use std::fmt;

/// Slack allowed on probability bounds before a value is rejected:
/// round-off of a few ulps near 0 or 1 is legitimate, anything beyond it
/// indicates a broken backend.
pub const PROB_SLACK: f64 = 1e-9;

/// A rejected numeric value: what it was supposed to be, what it was, and
/// which rule it broke.
#[derive(Clone, Debug, PartialEq)]
pub struct GuardError {
    /// Human-readable name of the quantity (e.g. `"nonblocking[2]"`).
    pub what: String,
    /// The offending value.
    pub value: f64,
    /// Which rule the value broke.
    pub violation: Violation,
}

/// Which guard rule a value broke.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Violation {
    /// `NaN` or ±∞ where a finite value was required.
    NonFinite,
    /// Below the admissible range (e.g. a negative probability).
    BelowRange,
    /// Above the admissible range (e.g. a probability above one).
    AboveRange,
}

impl fmt::Display for GuardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.violation {
            Violation::NonFinite => write!(f, "{} is not finite ({})", self.what, self.value),
            Violation::BelowRange => write!(f, "{} is below range ({})", self.what, self.value),
            Violation::AboveRange => write!(f, "{} is above range ({})", self.what, self.value),
        }
    }
}

impl std::error::Error for GuardError {}

/// Require `value` to be finite (no `NaN`, no ±∞).
pub fn finite_or_err(what: &str, value: f64) -> Result<f64, GuardError> {
    if value.is_finite() {
        Ok(value)
    } else {
        Err(GuardError {
            what: what.to_string(),
            value,
            violation: Violation::NonFinite,
        })
    }
}

/// Require `value` to be a probability: finite and within
/// `[-PROB_SLACK, 1 + PROB_SLACK]`. The returned value is clamped to
/// `[0, 1]`, so callers can propagate it without re-clamping.
pub fn checked_prob(what: &str, value: f64) -> Result<f64, GuardError> {
    let v = finite_or_err(what, value)?;
    if v < -PROB_SLACK {
        return Err(GuardError {
            what: what.to_string(),
            value: v,
            violation: Violation::BelowRange,
        });
    }
    if v > 1.0 + PROB_SLACK {
        return Err(GuardError {
            what: what.to_string(),
            value: v,
            violation: Violation::AboveRange,
        });
    }
    Ok(v.clamp(0.0, 1.0))
}

/// Require `value` to be finite and (up to `PROB_SLACK`) non-negative;
/// clamps the slack away like [`checked_prob`].
pub fn checked_nonneg(what: &str, value: f64) -> Result<f64, GuardError> {
    let v = finite_or_err(what, value)?;
    if v < -PROB_SLACK {
        return Err(GuardError {
            what: what.to_string(),
            value: v,
            violation: Violation::BelowRange,
        });
    }
    Ok(v.max(0.0))
}

/// Scale-free residual between two values:
/// `|a − b| / max(|a|, |b|, 1)`. Equal values (including two zeros) give
/// `0`; a `NaN` on either side gives `NaN` so the caller's tolerance test
/// fails.
pub fn relative_gap(a: f64, b: f64) -> f64 {
    if a == b {
        return 0.0;
    }
    (a - b).abs() / a.abs().max(b.abs()).max(1.0)
}

/// `true` iff [`relative_gap`] of `a` and `b` is within `tol` (strictly:
/// `NaN` gaps fail).
pub fn within_rel(a: f64, b: f64, tol: f64) -> bool {
    relative_gap(a, b) <= tol
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finite_passes_rejects() {
        assert_eq!(finite_or_err("x", 1.5), Ok(1.5));
        assert_eq!(
            finite_or_err("x", f64::NAN).unwrap_err().violation,
            Violation::NonFinite
        );
        assert_eq!(
            finite_or_err("x", f64::INFINITY).unwrap_err().violation,
            Violation::NonFinite
        );
    }

    #[test]
    fn prob_clamps_slack_and_rejects_junk() {
        assert_eq!(checked_prob("p", 0.5), Ok(0.5));
        assert_eq!(checked_prob("p", -1e-12), Ok(0.0));
        assert_eq!(checked_prob("p", 1.0 + 1e-12), Ok(1.0));
        assert_eq!(
            checked_prob("p", -0.1).unwrap_err().violation,
            Violation::BelowRange
        );
        assert_eq!(
            checked_prob("p", 1.1).unwrap_err().violation,
            Violation::AboveRange
        );
        assert_eq!(
            checked_prob("p", f64::NAN).unwrap_err().violation,
            Violation::NonFinite
        );
    }

    #[test]
    fn nonneg_allows_any_magnitude_above_zero() {
        assert_eq!(checked_nonneg("e", 123.0), Ok(123.0));
        assert_eq!(checked_nonneg("e", -1e-12), Ok(0.0));
        assert!(checked_nonneg("e", -0.5).is_err());
    }

    #[test]
    fn relative_gap_is_scale_free() {
        assert_eq!(relative_gap(1.0, 1.0), 0.0);
        assert_eq!(relative_gap(0.0, 0.0), 0.0);
        assert!((relative_gap(1e10, 1.0000001e10) - 1e-7).abs() < 1e-12);
        assert!(relative_gap(f64::NAN, 1.0).is_nan());
        assert!(!within_rel(f64::NAN, 1.0, 1e-6));
        assert!(within_rel(1.0, 1.0 + 1e-10, 1e-9));
        assert!(!within_rel(1.0, 1.01, 1e-9));
    }

    #[test]
    fn guard_error_displays_cause() {
        let e = checked_prob("B_1", 1.5).unwrap_err();
        let s = e.to_string();
        assert!(s.contains("B_1") && s.contains("above range"), "{s}");
    }
}
