// Entire suite gated: requires the `proptest` feature plus re-adding the
// proptest dev-dependency (removed for offline resolution).
#![cfg(feature = "proptest")]

//! Property tests over every regulator topology's full operating surface.

use hems_regulator::{AnyRegulator, BuckRegulator, Ldo, Regulator, ScRegulator};
use hems_units::{Volts, Watts};
use proptest::prelude::*;

fn lineup() -> Vec<AnyRegulator> {
    vec![
        AnyRegulator::from(Ldo::paper_65nm()),
        AnyRegulator::from(ScRegulator::paper_65nm()),
        AnyRegulator::from(BuckRegulator::paper_65nm()),
    ]
}

proptest! {
    /// Wherever a conversion succeeds, the physics must hold: input power
    /// covers the output, efficiency is in (0, 1], and the reported
    /// efficiency matches `p_out / p_in`.
    #[test]
    fn conversions_are_physical(
        v_in in 0.2f64..1.6,
        v_out in 0.05f64..1.2,
        p_mw in 0.01f64..50.0,
    ) {
        let p_out = Watts::from_milli(p_mw);
        for regulator in lineup() {
            if let Ok(c) = regulator.convert(Volts::new(v_in), Volts::new(v_out), p_out) {
                prop_assert!(
                    c.p_in >= p_out,
                    "{}: p_in {:?} < p_out {:?}",
                    regulator.kind(), c.p_in, p_out
                );
                prop_assert!(c.efficiency.ratio() > 0.0 && c.efficiency.ratio() <= 1.0);
                let implied = p_out / c.p_in;
                prop_assert!(
                    (c.efficiency.ratio() - implied).abs() < 1e-9,
                    "{}: reported {} vs implied {}",
                    regulator.kind(), c.efficiency.ratio(), implied
                );
            }
        }
    }

    /// Input power is monotone in the load at every supported point.
    #[test]
    fn p_in_is_monotone_in_load(
        v_in in 0.6f64..1.5,
        v_out in 0.3f64..0.8,
        p_mw in 0.1f64..20.0,
    ) {
        for regulator in lineup() {
            let a = regulator.convert(
                Volts::new(v_in), Volts::new(v_out), Watts::from_milli(p_mw));
            let b = regulator.convert(
                Volts::new(v_in), Volts::new(v_out), Watts::from_milli(p_mw * 1.3));
            if let (Ok(a), Ok(b)) = (a, b) {
                prop_assert!(b.p_in > a.p_in, "{}", regulator.kind());
            }
        }
    }

    /// `deliverable_output` inverts `convert` within solver tolerance.
    #[test]
    fn deliverable_output_inverts_convert(
        v_in in 0.9f64..1.5,
        v_out in 0.35f64..0.75,
        budget_mw in 2.0f64..30.0,
    ) {
        for regulator in lineup() {
            let v_in = Volts::new(v_in);
            let v_out = Volts::new(v_out);
            let budget = Watts::from_milli(budget_mw);
            let Ok(p_out) = regulator.deliverable_output(v_in, v_out, budget) else {
                continue;
            };
            if !p_out.is_positive() {
                continue;
            }
            let round = regulator.convert(v_in, v_out, p_out).expect("was deliverable");
            prop_assert!(
                round.p_in <= budget * (1.0 + 1e-6),
                "{}: round-trip {:?} exceeds budget {:?}",
                regulator.kind(), round.p_in, budget
            );
        }
    }
}
