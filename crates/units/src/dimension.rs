//! Physical dimensions as integer exponents over the seven SI base units.

use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// Number of SI base dimensions tracked.
pub const NUM_BASE: usize = 7;

/// A physical dimension: integer exponents over the SI base units
/// (length, mass, time, electric current, temperature, amount, luminous
/// intensity).
///
/// `Dim` forms an abelian group under multiplication of quantities:
/// multiplying quantities adds exponents, dividing subtracts them. The
/// group laws are property-tested in this crate's test suite.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Dim {
    /// Exponents in the order: m, kg, s, A, K, mol, cd.
    pub exps: [i8; NUM_BASE],
}

impl Dim {
    /// The dimensionless dimension (all exponents zero).
    pub const NONE: Dim = Dim { exps: [0; NUM_BASE] };
    /// Length (metre).
    pub const LENGTH: Dim = Dim::base(0);
    /// Mass (kilogram).
    pub const MASS: Dim = Dim::base(1);
    /// Time (second).
    pub const TIME: Dim = Dim::base(2);
    /// Thermodynamic temperature (kelvin).
    pub const TEMPERATURE: Dim = Dim::base(4);

    /// A base dimension with exponent 1 at position `i`.
    const fn base(i: usize) -> Dim {
        let mut exps = [0i8; NUM_BASE];
        exps[i] = 1;
        Dim { exps }
    }

    /// Construct a dimension from explicit `(length, mass, time)` exponents;
    /// the remaining base dimensions are zero. This covers every unit used
    /// by the astrophysics kernels.
    pub const fn lmt(length: i8, mass: i8, time: i8) -> Dim {
        Dim { exps: [length, mass, time, 0, 0, 0, 0] }
    }

    /// True when all exponents are zero.
    pub fn is_dimensionless(&self) -> bool {
        self.exps.iter().all(|&e| e == 0)
    }

    /// Raise the dimension to an integer power.
    pub fn pow(self, n: i8) -> Dim {
        let mut exps = [0i8; NUM_BASE];
        for (o, e) in exps.iter_mut().zip(self.exps) {
            *o = e * n;
        }
        Dim { exps }
    }

    /// Inverse dimension (all exponents negated).
    pub fn inv(self) -> Dim {
        -self
    }
}

impl Mul for Dim {
    type Output = Dim;
    // Multiplying quantities adds their dimension exponents.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn mul(self, rhs: Dim) -> Dim {
        self + rhs
    }
}

impl Add for Dim {
    type Output = Dim;
    fn add(self, rhs: Dim) -> Dim {
        let mut exps = [0i8; NUM_BASE];
        for (e, (a, b)) in exps.iter_mut().zip(self.exps.iter().zip(&rhs.exps)) {
            *e = a + b;
        }
        Dim { exps }
    }
}

impl Sub for Dim {
    type Output = Dim;
    fn sub(self, rhs: Dim) -> Dim {
        self + (-rhs)
    }
}

impl Neg for Dim {
    type Output = Dim;
    fn neg(self) -> Dim {
        let mut exps = [0i8; NUM_BASE];
        for (e, a) in exps.iter_mut().zip(&self.exps) {
            *e = -a;
        }
        Dim { exps }
    }
}

const SYMBOLS: [&str; NUM_BASE] = ["m", "kg", "s", "A", "K", "mol", "cd"];

impl fmt::Debug for Dim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Dim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_dimensionless() {
            return write!(f, "1");
        }
        let mut first = true;
        for (sym, &e) in SYMBOLS.iter().zip(&self.exps) {
            if e != 0 {
                if !first {
                    write!(f, " ")?;
                }
                first = false;
                if e == 1 {
                    write!(f, "{sym}")?;
                } else {
                    write!(f, "{sym}^{e}")?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_dims_are_distinct() {
        let dims = [
            Dim::LENGTH,
            Dim::MASS,
            Dim::TIME,
            Dim::base(3),
            Dim::TEMPERATURE,
            Dim::base(5),
            Dim::base(6),
        ];
        for (i, a) in dims.iter().enumerate() {
            for (j, b) in dims.iter().enumerate() {
                assert_eq!(a == b, i == j);
            }
        }
    }

    #[test]
    fn energy_dimension() {
        // E = M L^2 T^-2
        let energy = Dim::MASS + Dim::LENGTH.pow(2) - Dim::TIME.pow(2);
        assert_eq!(energy, Dim::lmt(2, 1, -2));
        assert_eq!(energy.to_string(), "m^2 kg s^-2");
    }

    #[test]
    fn mul_is_add_of_exponents() {
        assert_eq!(Dim::LENGTH * Dim::LENGTH, Dim::LENGTH.pow(2));
        assert_eq!(Dim::LENGTH * Dim::LENGTH.inv(), Dim::NONE);
    }

    #[test]
    fn display_dimensionless() {
        assert_eq!(Dim::NONE.to_string(), "1");
    }

    #[test]
    fn pow_zero_is_identity_element() {
        assert_eq!(Dim::MASS.pow(0), Dim::NONE);
    }
}
