//! N-body (Hénon) unit converter, mirroring AMUSE's `nbody_system`.
//!
//! Gravitational-dynamics kernels work in dimensionless units where
//! G = 1, total mass ~ 1 and the virial radius ~ 1. The coupler converts
//! between those and physical units using a [`NBodyConverter`] defined by a
//! chosen mass scale and length scale — exactly AMUSE's
//! `nbody_system.nbody_to_si(mass, length)`.

use crate::astro;
use crate::dimension::Dim;
use crate::quantity::Quantity;
use crate::unit::UnitError;

/// Converts between dimensionless N-body units (G = 1) and physical units.
#[derive(Clone, Copy, Debug)]
pub struct NBodyConverter {
    mass_si: f64,   // kg per n-body mass unit
    length_si: f64, // m per n-body length unit
    time_si: f64,   // s per n-body time unit (derived so that G = 1)
}

impl NBodyConverter {
    /// Build a converter from a mass scale and a length scale.
    ///
    /// The time unit follows from requiring G = 1 in code units:
    /// `t* = sqrt(L^3 / (G M))`.
    pub fn new(mass: Quantity, length: Quantity) -> Result<NBodyConverter, UnitError> {
        if mass.dim() != Dim::MASS {
            return Err(UnitError::Incompatible { left: mass.dim(), right: Dim::MASS });
        }
        if length.dim() != Dim::LENGTH {
            return Err(UnitError::Incompatible { left: length.dim(), right: Dim::LENGTH });
        }
        let mass_si = mass.si_value();
        let length_si = length.si_value();
        let time_si = (length_si.powi(3) / (astro::G_SI * mass_si)).sqrt();
        Ok(NBodyConverter { mass_si, length_si, time_si })
    }

    /// Seconds per N-body time unit.
    pub fn time_unit_si(&self) -> f64 {
        self.time_si
    }

    /// Convert a physical quantity to a dimensionless code value.
    ///
    /// The quantity's dimension determines the conversion: each base
    /// exponent is divided out by the corresponding code scale. Only
    /// (length, mass, time) dimensions are convertible.
    pub fn to_nbody(&self, q: Quantity) -> Result<f64, UnitError> {
        let d = q.dim();
        for &e in &d.exps[3..] {
            if e != 0 {
                return Err(UnitError::Incompatible { left: d, right: Dim::NONE });
            }
        }
        let scale = self.length_si.powi(d.exps[0] as i32)
            * self.mass_si.powi(d.exps[1] as i32)
            * self.time_si.powi(d.exps[2] as i32);
        Ok(q.si_value() / scale)
    }

    /// Convert a dimensionless code value with a known dimension back to a
    /// physical quantity.
    pub fn to_physical(&self, value: f64, dim: Dim) -> Result<Quantity, UnitError> {
        for &e in &dim.exps[3..] {
            if e != 0 {
                return Err(UnitError::Incompatible { left: dim, right: Dim::NONE });
            }
        }
        let scale = self.length_si.powi(dim.exps[0] as i32)
            * self.mass_si.powi(dim.exps[1] as i32)
            * self.time_si.powi(dim.exps[2] as i32);
        Ok(Quantity::from_si(value * scale, dim))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::si;

    fn converter() -> NBodyConverter {
        NBodyConverter::new(Quantity::new(1000.0, astro::MSUN), Quantity::new(1.0, astro::PARSEC))
            .unwrap()
    }

    #[test]
    fn mass_scale_round_trip() {
        let c = converter();
        let m = Quantity::new(500.0, astro::MSUN);
        let code = c.to_nbody(m).unwrap();
        assert!((code - 0.5).abs() < 1e-12);
        let back = c.to_physical(code, Dim::MASS).unwrap();
        assert!((back.value_in(astro::MSUN).unwrap() - 500.0).abs() < 1e-9);
    }

    #[test]
    fn g_equals_one_in_code_units() {
        let c = converter();
        let g = astro::g();
        let code_g = c.to_nbody(g).unwrap();
        assert!((code_g - 1.0).abs() < 1e-12, "G in code units = {code_g}");
    }

    #[test]
    fn velocity_scale_consistent() {
        let c = converter();
        // v* = L*/t*: one code velocity unit converts to 1
        let v = Quantity::from_si(c.length_si / c.time_si, Dim::lmt(1, 0, -1));
        assert!((c.to_nbody(v).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_wrong_scale_dimensions() {
        assert!(NBodyConverter::new(
            Quantity::new(1.0, astro::PARSEC),
            Quantity::new(1.0, astro::PARSEC)
        )
        .is_err());
    }

    #[test]
    fn rejects_temperature() {
        let c = converter();
        let t = Quantity::new(300.0, si::KELVIN);
        assert!(c.to_nbody(t).is_err());
    }

    #[test]
    fn crossing_time_is_order_myr_for_cluster() {
        // A 1000 MSun, 1 pc cluster has an n-body time unit of ~0.1-1 Myr.
        let c = converter();
        let t_myr = c.time_unit_si() / astro::MYR.si_factor;
        assert!(t_myr > 0.01 && t_myr < 10.0, "t* = {t_myr} Myr");
    }
}
