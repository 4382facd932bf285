//! Pluggable admission policies.
//!
//! Every policy reduces to a per-class spare-slot threshold vector `t`:
//! class `r` is admitted in state `k` iff
//! `min(N1,N2) − k·A ≥ a_r + t_r`. This is exactly the admission rule of
//! [`xbar_core::policy::solve_policy`], so the engine's decisions can be
//! cross-checked against the numerically solved reservation chain, and
//! `t ≡ 0` recovers the paper's complete-sharing model.

use xbar_core::Sensitivity;

use crate::engine::AdmissionError;

/// Which admission policy the engine applies.
#[derive(Clone, Debug, PartialEq)]
pub enum PolicySpec {
    /// The paper's baseline: admit whenever the ports fit
    /// (`k·A + a_r ≤ min(N1,N2)`).
    CompleteSharing,
    /// Per-class trunk reservation: class `r` must leave `t_r` spare
    /// connection slots behind (one threshold per class, in class order).
    TrunkReservation(Vec<u32>),
    /// Revenue-aware shadow-price thresholding: classes whose revenue
    /// gradient `∂W/∂ρ_r` (via [`xbar_core::sensitivity`]) is negative —
    /// i.e. whose §4 shadow cost exceeds their weight — are throttled
    /// with a reservation threshold of `reserve` slots; profitable
    /// classes share completely.
    ShadowPrice {
        /// Spare slots demanded from unprofitable classes.
        reserve: u32,
    },
}

impl PolicySpec {
    /// Parse a CLI-style policy spec:
    /// `cs` | `complete-sharing` | `trunk:t0,t1,...` | `shadow` |
    /// `shadow:reserve=N`.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "cs" | "complete-sharing" => return Ok(PolicySpec::CompleteSharing),
            "shadow" => return Ok(PolicySpec::ShadowPrice { reserve: 1 }),
            _ => {}
        }
        if let Some(rest) = s.strip_prefix("trunk:") {
            let thresholds = rest
                .split(',')
                .map(|p| {
                    p.parse::<u32>()
                        .map_err(|_| format!("bad trunk threshold '{p}' in '{s}'"))
                })
                .collect::<Result<Vec<u32>, String>>()?;
            if thresholds.is_empty() {
                return Err(format!("trunk policy '{s}' needs at least one threshold"));
            }
            return Ok(PolicySpec::TrunkReservation(thresholds));
        }
        if let Some(rest) = s.strip_prefix("shadow:") {
            let reserve = rest
                .strip_prefix("reserve=")
                .ok_or_else(|| format!("shadow policy options must be 'reserve=N', got '{s}'"))?
                .parse::<u32>()
                .map_err(|_| format!("bad reserve in '{s}'"))?;
            return Ok(PolicySpec::ShadowPrice { reserve });
        }
        Err(format!(
            "unknown policy '{s}' (expected cs | trunk:t0,t1,... | shadow[:reserve=N])"
        ))
    }

    /// Whether this policy prices its thresholds off the §4 sensitivity
    /// gradients (and therefore needs them computed for its model).
    pub fn needs_sensitivity(&self) -> bool {
        matches!(self, PolicySpec::ShadowPrice { .. })
    }

    /// Resolve the policy to one spare-slot threshold per class. `sens`
    /// is the model's §4 sensitivity analysis; only the shadow policy
    /// reads it, so the others take `None`.
    ///
    /// # Panics
    ///
    /// If the policy [needs sensitivity](PolicySpec::needs_sensitivity)
    /// and `sens` is `None`.
    pub fn thresholds(
        &self,
        r_count: usize,
        sens: Option<&Sensitivity>,
    ) -> Result<Vec<u32>, AdmissionError> {
        match self {
            PolicySpec::CompleteSharing => Ok(vec![0; r_count]),
            PolicySpec::TrunkReservation(t) => {
                if t.len() != r_count {
                    return Err(AdmissionError::ThresholdArity {
                        got: t.len(),
                        want: r_count,
                    });
                }
                Ok(t.clone())
            }
            PolicySpec::ShadowPrice { reserve } => Ok(sens
                .expect("shadow-price thresholds need the model's sensitivity")
                .revenue_by_rho
                .iter()
                .map(|&g| if g < 0.0 { *reserve } else { 0 })
                .collect()),
        }
    }
}

impl std::fmt::Display for PolicySpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolicySpec::CompleteSharing => write!(f, "complete-sharing"),
            PolicySpec::TrunkReservation(t) => {
                write!(f, "trunk:")?;
                for (i, v) in t.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{v}")?;
                }
                Ok(())
            }
            PolicySpec::ShadowPrice { reserve } => write!(f, "shadow:reserve={reserve}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_forms() {
        assert_eq!(
            PolicySpec::parse("cs").unwrap(),
            PolicySpec::CompleteSharing
        );
        assert_eq!(
            PolicySpec::parse("complete-sharing").unwrap(),
            PolicySpec::CompleteSharing
        );
        assert_eq!(
            PolicySpec::parse("trunk:0,2,1").unwrap(),
            PolicySpec::TrunkReservation(vec![0, 2, 1])
        );
        assert_eq!(
            PolicySpec::parse("shadow").unwrap(),
            PolicySpec::ShadowPrice { reserve: 1 }
        );
        assert_eq!(
            PolicySpec::parse("shadow:reserve=3").unwrap(),
            PolicySpec::ShadowPrice { reserve: 3 }
        );
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "nope",
            "trunk:",
            "trunk:1,x",
            "shadow:reserve=",
            "shadow:res=2",
            "shadow:reserve=-1",
            "",
        ] {
            assert!(PolicySpec::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn display_round_trips() {
        for s in ["complete-sharing", "trunk:0,2", "shadow:reserve=2"] {
            let p = PolicySpec::parse(s).unwrap();
            assert_eq!(PolicySpec::parse(&p.to_string()).unwrap(), p);
        }
    }
}
