//! SI base and derived units.

use crate::dimension::Dim;
use crate::unit::Unit;

/// Dimensionless "unit" (factor 1).
pub const NONE: Unit = Unit::new("", Dim::NONE, 1.0);

// --- base units -----------------------------------------------------------

/// Metre.
pub const METER: Unit = Unit::new("m", Dim::LENGTH, 1.0);
/// Kilogram.
pub const KILOGRAM: Unit = Unit::new("kg", Dim::MASS, 1.0);
/// Second.
pub const SECOND: Unit = Unit::new("s", Dim::TIME, 1.0);
/// Kelvin.
pub const KELVIN: Unit = Unit::new("K", Dim::TEMPERATURE, 1.0);

// --- scaled lengths --------------------------------------------------------

/// Kilometre.
pub const KILOMETER: Unit = Unit::new("km", Dim::LENGTH, 1.0e3);
/// Centimetre.
pub const CENTIMETER: Unit = Unit::new("cm", Dim::LENGTH, 1.0e-2);

// --- derived units ----------------------------------------------------------

/// Joule (kg m^2 / s^2).
pub const JOULE: Unit = Unit::new("J", Dim::lmt(2, 1, -2), 1.0);
/// Metres per second.
pub const METER_PER_SECOND: Unit = Unit::new("m/s", Dim::lmt(1, 0, -1), 1.0);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn newton_is_kg_m_per_s2() {
        let derived = KILOGRAM.mul(METER).div(SECOND.pow(2));
        assert_eq!(derived.dim, Dim::lmt(1, 1, -2));
        assert_eq!(derived.si_factor, 1.0);
    }

    #[test]
    fn joule_is_newton_meter() {
        let newton = KILOGRAM.mul(METER).div(SECOND.pow(2));
        let derived = newton.mul(METER);
        assert_eq!(derived.dim, JOULE.dim);
    }

    #[test]
    fn day_in_seconds() {
        let day = Unit::new("day", Dim::TIME, 86_400.0);
        assert_eq!(day.conversion_factor_to(SECOND).unwrap(), 86_400.0);
    }
}
