//! Newtype quantities over `f64`.
//!
//! Each quantity is a transparent wrapper around a single `f64` with the
//! arithmetic a physical dimension admits: same-dimension addition and
//! subtraction, scaling by a dimensionless `f64`, and a dimensionless ratio
//! from dividing two values of the same quantity. Cross-dimension products
//! and quotients (`Volts * Amps = Watts`, `Watts * Seconds = Joules`, …) are
//! implemented individually below the macro.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

macro_rules! quantity {
    ($(#[$meta:meta])* $name:ident, $unit:literal, $accessor:ident) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(f64);

        impl $name {
            /// The zero value of this quantity.
            pub const ZERO: $name = $name(0.0);

            /// Creates a new quantity from a raw value in base units.
            #[inline]
            pub const fn new(value: f64) -> Self {
                $name(value)
            }

            /// Returns the raw value in base units.
            ///
            /// The named accessor (e.g. [`Volts::volts`]) is usually clearer
            /// at call sites.
            #[inline]
            pub const fn value(self) -> f64 {
                self.0
            }

            #[doc = concat!("Returns the raw value in ", $unit, ".")]
            #[inline]
            pub const fn $accessor(self) -> f64 {
                self.0
            }

            /// Creates a quantity from a value expressed in thousandths of
            /// the base unit (milli-).
            #[inline]
            pub fn from_milli(value: f64) -> Self {
                $name(value * 1e-3)
            }

            /// Creates a quantity from a value expressed in millionths of
            /// the base unit (micro-).
            #[inline]
            pub fn from_micro(value: f64) -> Self {
                $name(value * 1e-6)
            }

            /// The raw value expressed in thousandths of the base unit.
            #[inline]
            pub fn to_milli(self) -> f64 {
                self.0 * 1e3
            }

            /// The raw value expressed in millionths of the base unit.
            #[inline]
            pub fn to_micro(self) -> f64 {
                self.0 * 1e6
            }

            /// Absolute value.
            #[inline]
            pub fn abs(self) -> Self {
                $name(self.0.abs())
            }

            /// The smaller of `self` and `other`.
            #[inline]
            pub fn min(self, other: Self) -> Self {
                $name(self.0.min(other.0))
            }

            /// The larger of `self` and `other`.
            #[inline]
            pub fn max(self, other: Self) -> Self {
                $name(self.0.max(other.0))
            }

            /// Clamps `self` into `[lo, hi]`.
            ///
            /// # Panics
            ///
            /// Panics if `lo > hi`, mirroring [`f64::clamp`].
            #[inline]
            pub fn clamp(self, lo: Self, hi: Self) -> Self {
                $name(self.0.clamp(lo.0, hi.0))
            }

            /// `true` when the underlying value is neither NaN nor infinite.
            #[inline]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }

            /// `true` when the value is strictly positive and finite.
            #[inline]
            pub fn is_positive(self) -> bool {
                self.0.is_finite() && self.0 > 0.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                if let Some(precision) = f.precision() {
                    write!(f, "{:.*} {}", precision, self.0, $unit)
                } else {
                    write!(f, "{} {}", self.0, $unit)
                }
            }
        }

        impl Add for $name {
            type Output = $name;
            #[inline]
            fn add(self, rhs: $name) -> $name {
                $name(self.0 + rhs.0)
            }
        }

        impl Sub for $name {
            type Output = $name;
            #[inline]
            fn sub(self, rhs: $name) -> $name {
                $name(self.0 - rhs.0)
            }
        }

        impl Neg for $name {
            type Output = $name;
            #[inline]
            fn neg(self) -> $name {
                $name(-self.0)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: $name) {
                self.0 += rhs.0;
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: $name) {
                self.0 -= rhs.0;
            }
        }

        impl Mul<f64> for $name {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: f64) -> $name {
                $name(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = $name;
            #[inline]
            fn div(self, rhs: f64) -> $name {
                $name(self.0 / rhs)
            }
        }

        impl MulAssign<f64> for $name {
            #[inline]
            fn mul_assign(&mut self, rhs: f64) {
                self.0 *= rhs;
            }
        }

        impl DivAssign<f64> for $name {
            #[inline]
            fn div_assign(&mut self, rhs: f64) {
                self.0 /= rhs;
            }
        }

        /// Dividing two values of the same quantity yields a dimensionless ratio.
        impl Div for $name {
            type Output = f64;
            #[inline]
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = $name>>(iter: I) -> $name {
                $name(iter.map(|q| q.0).sum())
            }
        }
    };
}

quantity!(
    /// Electric potential in volts.
    Volts, "V", volts
);
quantity!(
    /// Electric current in amperes.
    Amps, "A", amps
);
quantity!(
    /// Power in watts.
    Watts, "W", watts
);
quantity!(
    /// Energy in joules.
    Joules, "J", joules
);
quantity!(
    /// Frequency in hertz.
    Hertz, "Hz", hertz
);
quantity!(
    /// Time in seconds.
    Seconds, "s", seconds
);
quantity!(
    /// Capacitance in farads.
    Farads, "F", farads
);
quantity!(
    /// Electric charge in coulombs.
    Coulombs, "C", coulombs
);
quantity!(
    /// Resistance in ohms.
    Ohms, "Ohm", ohms
);
quantity!(
    /// A (fractional) count of clock cycles.
    Cycles, "cyc", count
);

// --- Cross-dimension arithmetic -------------------------------------------

impl Mul<Amps> for Volts {
    type Output = Watts;
    #[inline]
    fn mul(self, rhs: Amps) -> Watts {
        Watts::new(self.volts() * rhs.amps())
    }
}

impl Mul<Volts> for Amps {
    type Output = Watts;
    #[inline]
    fn mul(self, rhs: Volts) -> Watts {
        rhs * self
    }
}

impl Div<Volts> for Watts {
    type Output = Amps;
    #[inline]
    fn div(self, rhs: Volts) -> Amps {
        Amps::new(self.watts() / rhs.volts())
    }
}

impl Div<Amps> for Watts {
    type Output = Volts;
    #[inline]
    fn div(self, rhs: Amps) -> Volts {
        Volts::new(self.watts() / rhs.amps())
    }
}

impl Mul<Seconds> for Watts {
    type Output = Joules;
    #[inline]
    fn mul(self, rhs: Seconds) -> Joules {
        Joules::new(self.watts() * rhs.seconds())
    }
}

impl Mul<Watts> for Seconds {
    type Output = Joules;
    #[inline]
    fn mul(self, rhs: Watts) -> Joules {
        rhs * self
    }
}

impl Div<Seconds> for Joules {
    type Output = Watts;
    #[inline]
    fn div(self, rhs: Seconds) -> Watts {
        Watts::new(self.joules() / rhs.seconds())
    }
}

impl Div<Watts> for Joules {
    type Output = Seconds;
    #[inline]
    fn div(self, rhs: Watts) -> Seconds {
        Seconds::new(self.joules() / rhs.watts())
    }
}

impl Mul<Seconds> for Amps {
    type Output = Coulombs;
    #[inline]
    fn mul(self, rhs: Seconds) -> Coulombs {
        Coulombs::new(self.amps() * rhs.seconds())
    }
}

impl Div<Volts> for Coulombs {
    type Output = Farads;
    #[inline]
    fn div(self, rhs: Volts) -> Farads {
        Farads::new(self.coulombs() / rhs.volts())
    }
}

impl Div<Farads> for Coulombs {
    type Output = Volts;
    #[inline]
    fn div(self, rhs: Farads) -> Volts {
        Volts::new(self.coulombs() / rhs.farads())
    }
}

impl Mul<Volts> for Farads {
    type Output = Coulombs;
    #[inline]
    fn mul(self, rhs: Volts) -> Coulombs {
        Coulombs::new(self.farads() * rhs.volts())
    }
}

impl Div<Amps> for Coulombs {
    type Output = Seconds;
    #[inline]
    fn div(self, rhs: Amps) -> Seconds {
        Seconds::new(self.coulombs() / rhs.amps())
    }
}

impl Div<Ohms> for Volts {
    type Output = Amps;
    #[inline]
    fn div(self, rhs: Ohms) -> Amps {
        Amps::new(self.volts() / rhs.ohms())
    }
}

impl Div<Amps> for Volts {
    type Output = Ohms;
    #[inline]
    fn div(self, rhs: Amps) -> Ohms {
        Ohms::new(self.volts() / rhs.amps())
    }
}

impl Mul<Ohms> for Amps {
    type Output = Volts;
    #[inline]
    fn mul(self, rhs: Ohms) -> Volts {
        Volts::new(self.amps() * rhs.ohms())
    }
}

impl Mul<Seconds> for Hertz {
    type Output = Cycles;
    #[inline]
    fn mul(self, rhs: Seconds) -> Cycles {
        Cycles::new(self.hertz() * rhs.seconds())
    }
}

impl Mul<Hertz> for Seconds {
    type Output = Cycles;
    #[inline]
    fn mul(self, rhs: Hertz) -> Cycles {
        rhs * self
    }
}

impl Div<Hertz> for Cycles {
    type Output = Seconds;
    #[inline]
    fn div(self, rhs: Hertz) -> Seconds {
        Seconds::new(self.count() / rhs.hertz())
    }
}

impl Div<Seconds> for Cycles {
    type Output = Hertz;
    #[inline]
    fn div(self, rhs: Seconds) -> Hertz {
        Hertz::new(self.count() / rhs.seconds())
    }
}

impl Hertz {
    /// Creates a frequency from megahertz.
    #[inline]
    pub fn from_mega(mhz: f64) -> Hertz {
        Hertz::new(mhz * 1e6)
    }

    /// Creates a frequency from gigahertz.
    #[inline]
    pub fn from_giga(ghz: f64) -> Hertz {
        Hertz::new(ghz * 1e9)
    }

    /// The raw value expressed in megahertz.
    #[inline]
    pub fn to_mega(self) -> f64 {
        self.hertz() * 1e-6
    }
}

impl Farads {
    /// The energy stored on this capacitance when charged to `v`:
    /// `E = C * v^2 / 2`.
    #[inline]
    pub fn stored_energy(self, v: Volts) -> Joules {
        Joules::new(0.5 * self.farads() * v.volts() * v.volts())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    #[cfg(feature = "proptest")]
    use proptest::prelude::*;

    #[test]
    fn same_dimension_arithmetic() {
        let a = Volts::new(1.0);
        let b = Volts::new(0.25);
        assert_eq!((a + b).volts(), 1.25);
        assert_eq!((a - b).volts(), 0.75);
        assert_eq!((-b).volts(), -0.25);
        assert_eq!((a * 2.0).volts(), 2.0);
        assert_eq!((2.0 * a).volts(), 2.0);
        assert_eq!((a / 4.0).volts(), 0.25);
        assert_eq!(a / b, 4.0);
    }

    #[test]
    fn assign_ops() {
        let mut v = Watts::new(1.0);
        v += Watts::new(2.0);
        v -= Watts::new(0.5);
        v *= 2.0;
        v /= 5.0;
        assert!((v.watts() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn power_energy_chain() {
        let p = Volts::new(0.55) * Amps::from_milli(10.0);
        assert!((p.to_milli() - 5.5).abs() < 1e-9);
        let e = p * Seconds::from_milli(15.0);
        assert!((e.to_micro() - 82.5).abs() < 1e-6);
        let back: Watts = e / Seconds::from_milli(15.0);
        assert!((back.watts() - p.watts()).abs() < 1e-15);
        let t: Seconds = e / p;
        assert!((t.to_milli() - 15.0).abs() < 1e-9);
    }

    #[test]
    fn ohms_law() {
        let i = Volts::new(1.2) / Ohms::new(120.0);
        assert!((i.to_milli() - 10.0).abs() < 1e-9);
        let r = Volts::new(1.2) / Amps::from_milli(10.0);
        assert!((r.ohms() - 120.0).abs() < 1e-9);
        let v = Amps::from_milli(10.0) * Ohms::new(120.0);
        assert!((v.volts() - 1.2).abs() < 1e-9);
    }

    #[test]
    fn charge_and_capacitance() {
        let q = Amps::from_milli(1.0) * Seconds::new(2.0);
        assert!((q.to_milli() - 2.0).abs() < 1e-12);
        let c = q / Volts::new(4.0);
        assert!((c.to_micro() - 500.0).abs() < 1e-6);
        let v = q / Farads::from_micro(500.0);
        assert!((v.volts() - 4.0).abs() < 1e-9);
        let t = q / Amps::from_milli(1.0);
        assert!((t.seconds() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn frequency_and_cycles() {
        let f = Hertz::from_mega(100.0);
        let n = f * Seconds::from_milli(1.0);
        assert!((n.count() - 100_000.0).abs() < 1e-6);
        let t = n / f;
        assert!((t.to_milli() - 1.0).abs() < 1e-12);
        let f2 = n / Seconds::from_milli(1.0);
        assert!((f2.hertz() - f.hertz()).abs() < 1e-3);
        assert!((Hertz::from_giga(1.2).to_mega() - 1200.0).abs() < 1e-9);
    }

    #[test]
    fn capacitor_energy() {
        let e = Farads::from_micro(100.0).stored_energy(Volts::new(1.2));
        assert!((e.to_micro() - 72.0).abs() < 1e-9);
    }

    #[test]
    fn min_max_clamp_abs() {
        let a = Joules::new(-2.0);
        assert_eq!(a.abs().joules(), 2.0);
        assert_eq!(a.max(Joules::ZERO), Joules::ZERO);
        assert_eq!(a.min(Joules::ZERO), a);
        assert_eq!(
            Joules::new(5.0).clamp(Joules::ZERO, Joules::new(1.0)),
            Joules::new(1.0)
        );
    }

    #[test]
    fn display_includes_unit_and_precision() {
        assert_eq!(format!("{:.2}", Volts::new(0.5512)), "0.55 V");
        assert_eq!(format!("{}", Watts::new(2.0)), "2 W");
        assert_eq!(format!("{:.1}", Hertz::new(1.25)), "1.2 Hz");
    }

    #[test]
    fn finiteness_predicates() {
        assert!(Volts::new(1.0).is_finite());
        assert!(!Volts::new(f64::NAN).is_finite());
        assert!(Volts::new(1.0).is_positive());
        assert!(!Volts::ZERO.is_positive());
        assert!(!Volts::new(f64::INFINITY).is_positive());
    }

    #[test]
    fn sum_of_quantities() {
        let total: Joules = (1..=4).map(|i| Joules::new(i as f64)).sum();
        assert_eq!(total.joules(), 10.0);
    }

    #[test]
    fn milli_micro_round_trip() {
        let v = Volts::from_milli(550.0);
        assert!((v.volts() - 0.55).abs() < 1e-12);
        assert!((v.to_milli() - 550.0).abs() < 1e-9);
        let i = Amps::from_micro(15.0);
        assert!((i.to_micro() - 15.0).abs() < 1e-9);
    }

    // Gated: requires the `proptest` feature plus re-adding the
    // proptest dev-dependency (removed for offline resolution).
    #[cfg(feature = "proptest")]
    proptest! {
        #[test]
        fn addition_is_commutative(a in -1e6f64..1e6, b in -1e6f64..1e6) {
            let x = Watts::new(a) + Watts::new(b);
            let y = Watts::new(b) + Watts::new(a);
            prop_assert_eq!(x, y);
        }

        #[test]
        fn power_division_inverts_multiplication(
            v in 0.01f64..10.0,
            i in 0.001f64..1.0,
        ) {
            let p = Volts::new(v) * Amps::new(i);
            let i_back = p / Volts::new(v);
            prop_assert!((i_back.amps() - i).abs() <= 1e-12 * i.abs().max(1.0));
        }

        #[test]
        fn energy_time_round_trip(p in 1e-6f64..10.0, t in 1e-6f64..1e3) {
            let e = Watts::new(p) * Seconds::new(t);
            let t_back = e / Watts::new(p);
            prop_assert!((t_back.seconds() - t).abs() <= 1e-9 * t);
        }

        #[test]
        fn clamp_is_idempotent(x in -10.0f64..10.0) {
            let lo = Volts::new(-1.0);
            let hi = Volts::new(1.0);
            let once = Volts::new(x).clamp(lo, hi);
            prop_assert_eq!(once, once.clamp(lo, hi));
            prop_assert!(once >= lo && once <= hi);
        }
    }
}
