//! Units: a named scale factor attached to a dimension.

use crate::dimension::Dim;
use std::fmt;

/// Error type for checked unit operations.
#[derive(Debug, Clone, PartialEq)]
pub enum UnitError {
    /// Two quantities (or a quantity and a target unit) have different
    /// dimensions; conversion or addition is refused. Carries the two
    /// dimensions for diagnostics — the AMUSE coupler surfaces these to the
    /// simulation script author.
    Incompatible {
        /// Dimension of the left-hand side / source quantity.
        left: Dim,
        /// Dimension of the right-hand side / target unit.
        right: Dim,
    },
    /// An operation the unit algebra cannot represent, such as the square
    /// root of a dimension with an odd exponent.
    IllegalValue {
        /// Human-readable description of the offending value.
        what: String,
    },
}

impl fmt::Display for UnitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnitError::Incompatible { left, right } => {
                write!(f, "incompatible dimensions: {left} vs {right}")
            }
            UnitError::IllegalValue { what } => write!(f, "illegal value: {what}"),
        }
    }
}

impl std::error::Error for UnitError {}

/// A unit of measure: a dimension plus the factor converting one of this
/// unit into SI base units, plus a human-readable symbol.
///
/// Units are small `Copy` values; derived units can be formed with
/// [`Unit::mul`], [`Unit::div`] and [`Unit::pow`] (these produce units with
/// a generic symbol, which is fine for intermediate computation).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Unit {
    /// Symbol, e.g. `"MSun"` or `"km/s"`.
    pub symbol: &'static str,
    /// Dimension of the unit.
    pub dim: Dim,
    /// How many SI base units one of this unit is (e.g. 1 parsec =
    /// 3.0857e16 m, so `si_factor = 3.0857e16`).
    pub si_factor: f64,
}

impl Unit {
    /// Define a new unit.
    pub const fn new(symbol: &'static str, dim: Dim, si_factor: f64) -> Unit {
        Unit { symbol, dim, si_factor }
    }

    /// Product of two units (symbol is lost; dimension and factor compose).
    #[allow(clippy::should_implement_trait)] // const-friendly named method, like `uom`
    pub fn mul(self, rhs: Unit) -> Unit {
        Unit {
            symbol: "<derived>",
            dim: self.dim + rhs.dim,
            si_factor: self.si_factor * rhs.si_factor,
        }
    }

    /// Quotient of two units.
    #[allow(clippy::should_implement_trait)] // const-friendly named method, like `uom`
    pub fn div(self, rhs: Unit) -> Unit {
        Unit {
            symbol: "<derived>",
            dim: self.dim - rhs.dim,
            si_factor: self.si_factor / rhs.si_factor,
        }
    }

    /// Integer power of a unit.
    pub fn pow(self, n: i8) -> Unit {
        Unit { symbol: "<derived>", dim: self.dim.pow(n), si_factor: self.si_factor.powi(n as i32) }
    }

    /// Factor converting a value expressed in `self` into `other`.
    ///
    /// Errors when the dimensions differ — this is the "checked conversion"
    /// the paper calls a requirement for combining models.
    pub fn conversion_factor_to(self, other: Unit) -> Result<f64, UnitError> {
        if self.dim != other.dim {
            return Err(UnitError::Incompatible { left: self.dim, right: other.dim });
        }
        Ok(self.si_factor / other.si_factor)
    }
}

impl fmt::Display for Unit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.symbol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::si;

    #[test]
    fn conversion_factor_km_to_m() {
        assert_eq!(si::KILOMETER.conversion_factor_to(si::METER).unwrap(), 1000.0);
    }

    #[test]
    fn incompatible_conversion_is_error() {
        let err = si::KILOMETER.conversion_factor_to(si::SECOND).unwrap_err();
        match err {
            UnitError::Incompatible { left, right } => {
                assert_eq!(left, Dim::LENGTH);
                assert_eq!(right, Dim::TIME);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn derived_unit_composition() {
        let speed = si::METER.div(si::SECOND);
        assert_eq!(speed.dim, Dim::lmt(1, 0, -1));
        assert_eq!(speed.si_factor, 1.0);
        let area = si::KILOMETER.pow(2);
        assert_eq!(area.dim, Dim::lmt(2, 0, 0));
        assert_eq!(area.si_factor, 1.0e6);
    }

    #[test]
    fn display_uses_symbol() {
        assert_eq!(si::JOULE.to_string(), "J");
    }
}
