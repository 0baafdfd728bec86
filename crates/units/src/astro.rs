//! Astronomical units and constants used by the AMUSE-style kernels.

use crate::dimension::Dim;
use crate::quantity::Quantity;
use crate::unit::Unit;

/// Parsec.
pub const PARSEC: Unit = Unit::new("pc", Dim::LENGTH, 3.085_677_581_49e16);

/// Solar mass.
pub const MSUN: Unit = Unit::new("MSun", Dim::MASS, 1.988_47e30);

/// Megayear.
pub const MYR: Unit = Unit::new("Myr", Dim::TIME, 3.155_76e13);

/// Dimension of the gravitational constant: L^3 M^-1 T^-2.
pub const G_DIM: Dim = Dim::lmt(3, -1, -2);

/// Newton's gravitational constant in SI (m^3 kg^-1 s^-2).
pub const G_SI: f64 = 6.674_30e-11;

/// Newton's gravitational constant as a checked quantity.
pub fn g() -> Quantity {
    Quantity::from_si(G_SI, G_DIM)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::si;

    #[test]
    fn parsec_in_lightyears() {
        let lightyear = Unit::new("ly", Dim::LENGTH, 9.460_730_472_58e15);
        let f = PARSEC.conversion_factor_to(lightyear).unwrap();
        assert!((f - 3.2616).abs() < 1e-3, "1 pc = {f} ly");
    }

    #[test]
    fn kms_is_1000_m_per_s() {
        let kms = si::KILOMETER.div(si::SECOND);
        assert_eq!(kms.conversion_factor_to(si::METER_PER_SECOND).unwrap(), 1000.0);
    }

    #[test]
    fn g_has_right_dimension() {
        let q = g();
        assert_eq!(q.dim(), G_DIM);
    }

    #[test]
    fn myr_in_years() {
        let year = Unit::new("yr", Dim::TIME, 3.155_76e7);
        assert!((MYR.conversion_factor_to(year).unwrap() - 1.0e6).abs() < 1.0);
    }
}
