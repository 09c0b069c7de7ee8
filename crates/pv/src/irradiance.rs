use crate::PvError;
use hems_units::UnitsError;
use std::fmt;

/// Normalized light intensity: `1.0` is the paper's "outdoor strong light",
/// `0.0` is darkness.
///
/// The paper evaluates at 100 %, 50 % and 25 % of full solar output
/// (Fig. 7a) plus dim indoor light (Fig. 2); the named constants mirror
/// those conditions.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Irradiance(f64);

impl Irradiance {
    /// Outdoor strong sunlight (the paper's 100 % condition).
    pub const FULL_SUN: Irradiance = Irradiance(1.0);
    /// Half solar output (the paper's 50 % condition, e.g. light overcast).
    pub const HALF_SUN: Irradiance = Irradiance(0.5);
    /// Quarter solar output (the paper's 25 % "low light" condition).
    pub const QUARTER_SUN: Irradiance = Irradiance(0.25);
    /// Heavy overcast outdoor light.
    pub const OVERCAST: Irradiance = Irradiance(0.10);
    /// Bright indoor lighting — orders of magnitude below sunlight.
    pub const INDOOR: Irradiance = Irradiance(0.02);
    /// Complete darkness.
    pub const DARK: Irradiance = Irradiance(0.0);

    /// Creates an irradiance from a fraction of full sunlight.
    ///
    /// Values slightly above `1.0` (up to `2.0`) are accepted to allow
    /// modelling concentrated / reflective conditions.
    ///
    /// # Errors
    ///
    /// Returns [`PvError::BadParameter`] for non-finite values or values
    /// outside `[0, 2]`.
    pub fn new(fraction: f64) -> Result<Self, PvError> {
        if !fraction.is_finite() {
            return Err(UnitsError::NotFinite {
                what: "irradiance",
                value: fraction,
            }
            .into());
        }
        if !(0.0..=2.0).contains(&fraction) {
            return Err(UnitsError::OutOfRange {
                what: "irradiance",
                value: fraction,
                min: 0.0,
                max: 2.0,
            }
            .into());
        }
        Ok(Irradiance(fraction))
    }

    /// The fraction of full sunlight in `[0, 2]`.
    #[inline]
    pub const fn fraction(self) -> f64 {
        self.0
    }

    /// `true` in complete darkness.
    #[inline]
    pub fn is_dark(self) -> bool {
        self.0 <= 0.0
    }
}

impl fmt::Display for Irradiance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.0}% sun", self.0 * 100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructor_validates() {
        assert!(Irradiance::new(0.0).is_ok());
        assert!(Irradiance::new(1.0).is_ok());
        assert!(Irradiance::new(2.0).is_ok());
        assert!(Irradiance::new(-0.1).is_err());
        assert!(Irradiance::new(2.1).is_err());
        assert!(Irradiance::new(f64::NAN).is_err());
    }

    #[test]
    fn named_conditions_are_ordered() {
        assert!(Irradiance::FULL_SUN > Irradiance::HALF_SUN);
        assert!(Irradiance::HALF_SUN > Irradiance::QUARTER_SUN);
        assert!(Irradiance::QUARTER_SUN > Irradiance::OVERCAST);
        assert!(Irradiance::OVERCAST > Irradiance::INDOOR);
        assert!(Irradiance::INDOOR > Irradiance::DARK);
        assert!(Irradiance::DARK.is_dark());
        assert!(!Irradiance::INDOOR.is_dark());
    }

    #[test]
    fn display_formats_percent() {
        assert_eq!(Irradiance::QUARTER_SUN.to_string(), "25% sun");
    }
}
