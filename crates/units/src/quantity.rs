//! Dimension-checked scalar quantities.

use crate::dimension::Dim;
use crate::unit::{Unit, UnitError};
use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// A scalar physical quantity: a value stored in SI base units plus its
/// dimension.
///
/// All arithmetic is dimension-checked. Multiplication and division always
/// succeed (dimensions compose); addition and subtraction return
/// `Err(UnitError::Incompatible)` when the dimensions differ. To keep call
/// sites readable, `*` and `/` are also offered on `Result<Quantity, _>` so
/// checked expressions chain: `(m * v * v)` is a `Result`.
#[derive(Clone, Copy, PartialEq)]
pub struct Quantity {
    value_si: f64,
    dim: Dim,
}

impl Quantity {
    /// Create a quantity from a value expressed in `unit`.
    pub fn new(value: f64, unit: Unit) -> Quantity {
        Quantity { value_si: value * unit.si_factor, dim: unit.dim }
    }

    /// Create a quantity directly from an SI value and dimension.
    pub fn from_si(value_si: f64, dim: Dim) -> Quantity {
        Quantity { value_si, dim }
    }

    /// A dimensionless quantity.
    pub fn scalar(value: f64) -> Quantity {
        Quantity { value_si: value, dim: Dim::NONE }
    }

    /// Zero with the dimension of `unit`.
    pub fn zero(unit: Unit) -> Quantity {
        Quantity { value_si: 0.0, dim: unit.dim }
    }

    /// The dimension of this quantity.
    pub fn dim(&self) -> Dim {
        self.dim
    }

    /// Raw SI value (use sparingly; prefer [`Quantity::value_in`]).
    pub fn si_value(&self) -> f64 {
        self.value_si
    }

    /// Convert to a value expressed in `unit`, checking dimensions.
    pub fn value_in(&self, unit: Unit) -> Result<f64, UnitError> {
        if self.dim != unit.dim {
            return Err(UnitError::Incompatible { left: self.dim, right: unit.dim });
        }
        Ok(self.value_si / unit.si_factor)
    }

    /// Checked addition.
    pub fn checked_add(self, rhs: Quantity) -> Result<Quantity, UnitError> {
        if self.dim != rhs.dim {
            return Err(UnitError::Incompatible { left: self.dim, right: rhs.dim });
        }
        Ok(Quantity { value_si: self.value_si + rhs.value_si, dim: self.dim })
    }

    /// Checked subtraction.
    pub fn checked_sub(self, rhs: Quantity) -> Result<Quantity, UnitError> {
        self.checked_add(-rhs)
    }

    /// Integer power.
    pub fn powi(self, n: i8) -> Quantity {
        Quantity { value_si: self.value_si.powi(n as i32), dim: self.dim.pow(n) }
    }

    /// Square root; dimension exponents must all be even.
    pub fn sqrt(self) -> Result<Quantity, UnitError> {
        let mut exps = [0i8; crate::dimension::NUM_BASE];
        for (o, &e) in exps.iter_mut().zip(&self.dim.exps) {
            if e % 2 != 0 {
                return Err(UnitError::IllegalValue {
                    what: format!("sqrt of dimension {} with odd exponent", self.dim),
                });
            }
            *o = e / 2;
        }
        Ok(Quantity { value_si: self.value_si.sqrt(), dim: Dim { exps } })
    }
}

impl fmt::Debug for Quantity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]", self.value_si, self.dim)
    }
}

impl fmt::Display for Quantity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.value_si, self.dim)
    }
}

impl Neg for Quantity {
    type Output = Quantity;
    fn neg(self) -> Quantity {
        Quantity { value_si: -self.value_si, dim: self.dim }
    }
}

impl Mul for Quantity {
    type Output = Quantity;
    fn mul(self, rhs: Quantity) -> Quantity {
        Quantity { value_si: self.value_si * rhs.value_si, dim: self.dim + rhs.dim }
    }
}

impl Div for Quantity {
    type Output = Quantity;
    fn div(self, rhs: Quantity) -> Quantity {
        Quantity { value_si: self.value_si / rhs.value_si, dim: self.dim - rhs.dim }
    }
}

impl Mul<f64> for Quantity {
    type Output = Quantity;
    fn mul(self, rhs: f64) -> Quantity {
        Quantity { value_si: self.value_si * rhs, dim: self.dim }
    }
}

impl Div<f64> for Quantity {
    type Output = Quantity;
    fn div(self, rhs: f64) -> Quantity {
        Quantity { value_si: self.value_si / rhs, dim: self.dim }
    }
}

impl Add for Quantity {
    type Output = Result<Quantity, UnitError>;
    fn add(self, rhs: Quantity) -> Result<Quantity, UnitError> {
        self.checked_add(rhs)
    }
}

impl Sub for Quantity {
    type Output = Result<Quantity, UnitError>;
    fn sub(self, rhs: Quantity) -> Result<Quantity, UnitError> {
        self.checked_sub(rhs)
    }
}

// Chaining helpers so `(m * v * v)` style expressions work where an
// intermediate is already a Result.
impl Mul<Quantity> for Result<Quantity, UnitError> {
    type Output = Result<Quantity, UnitError>;
    fn mul(self, rhs: Quantity) -> Result<Quantity, UnitError> {
        self.map(|q| q * rhs)
    }
}

impl Div<Quantity> for Result<Quantity, UnitError> {
    type Output = Result<Quantity, UnitError>;
    fn div(self, rhs: Quantity) -> Result<Quantity, UnitError> {
        self.map(|q| q / rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{astro, si};

    #[test]
    fn kinetic_energy_checks_out() {
        let m = Quantity::new(2.0, si::KILOGRAM);
        let v = Quantity::new(3.0, si::METER_PER_SECOND);
        let e = m * v * v * 0.5;
        assert_eq!(e.value_in(si::JOULE).unwrap(), 9.0);
    }

    #[test]
    fn adding_mass_to_length_fails() {
        let m = Quantity::new(1.0, si::KILOGRAM);
        let l = Quantity::new(1.0, si::METER);
        assert!((m + l).is_err());
    }

    #[test]
    fn msun_to_kg() {
        let m = Quantity::new(1.0, astro::MSUN);
        assert!((m.value_in(si::KILOGRAM).unwrap() - 1.98847e30).abs() < 1e25);
    }

    #[test]
    fn sqrt_even_exponents() {
        let a = Quantity::new(9.0, si::METER.pow(2));
        assert_eq!(a.sqrt().unwrap().value_in(si::METER).unwrap(), 3.0);
    }

    #[test]
    fn sqrt_odd_exponent_fails() {
        let a = Quantity::new(9.0, si::METER);
        assert!(a.sqrt().is_err());
    }
}
