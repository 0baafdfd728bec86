//! # jc-units — checked physical units and quantities
//!
//! Reproduction of the AMUSE unit system described in §4.1 of the paper:
//! *"AMUSE implements all functionality required to perform astrophysical
//! simulations, for example by supporting automatic unit conversion. With the
//! large number of units used in astronomy, checked conversion of all these
//! units is a requirement for combining different models."*
//!
//! Every value exchanged between coupled models is a [`Quantity`]: a scalar
//! stored internally in SI base units together with its [`Dim`]ension.
//! Arithmetic between quantities is dimension-checked at runtime; converting
//! a quantity to a unit with a different dimension is an error
//! ([`UnitError::Incompatible`]). This is exactly the failure mode the AMUSE
//! coupler guards against when models written by different groups are glued
//! together.
//!
//! The crate also provides the `nbody_system` converter ([`NBodyConverter`])
//! used by gravitational-dynamics codes: those codes work in dimensionless
//! Hénon units (G = 1), and the converter maps between those and physical
//! units given a mass and length scale.
//!
//! ```
//! use jc_units::{Quantity, astro, si};
//!
//! let m = Quantity::new(1.0, astro::MSUN);
//! let v = Quantity::new(10.0, si::KILOMETER.div(si::SECOND));
//! let e = m * v * v; // mass * velocity^2 is an energy
//! assert!(e.value_in(si::JOULE).unwrap() > 0.0);
//! assert!(e.value_in(si::METER).is_err()); // checked conversion
//! ```

#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod astro;
pub mod dimension;
pub mod nbody;
pub mod quantity;
pub mod si;
pub mod unit;

pub use dimension::Dim;
pub use nbody::NBodyConverter;
pub use quantity::Quantity;
pub use unit::{Unit, UnitError};
