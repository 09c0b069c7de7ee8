use crate::{AnyRegulator, Conversion, Regulator, RegulatorError, RegulatorKind};
use hems_units::{UnitsError, Volts, Watts};

/// A bank of heterogeneous regulators with a per-operating-point mux.
///
/// The paper's introduction cites simultaneous scheduling of heterogeneous
/// regulators (LDO + DC-DC, its ref.\[19\]) as the adjacent line of work its
/// fully-integrated setting generalizes; Section III's data makes the case
/// directly — the SC converter wins at mid load, the buck at high load, and
/// the LDO costs least silicon. `HybridRegulator` models an SoC that
/// integrates several topologies and powers whichever one is most efficient
/// at the requested `(v_in, v_out, p_out)`, which is exactly the
/// "holistic optimization opportunity" of having all modules on one die.
#[derive(Debug, Clone, PartialEq)]
pub struct HybridRegulator {
    candidates: Vec<AnyRegulator>,
}

impl HybridRegulator {
    /// Builds a bank from candidate regulators.
    ///
    /// # Errors
    ///
    /// Returns [`RegulatorError::BadParameter`] for an empty bank.
    pub fn new(candidates: Vec<AnyRegulator>) -> Result<HybridRegulator, RegulatorError> {
        if candidates.is_empty() {
            return Err(UnitsError::BadTable {
                reason: "hybrid regulator needs at least one candidate",
            }
            .into());
        }
        Ok(HybridRegulator { candidates })
    }

    /// The paper's on-chip lineup (LDO + SC + buck) as one muxed bank.
    pub fn paper_65nm() -> HybridRegulator {
        HybridRegulator {
            candidates: vec![
                AnyRegulator::from(crate::Ldo::paper_65nm()),
                AnyRegulator::from(crate::ScRegulator::paper_65nm()),
                AnyRegulator::from(crate::BuckRegulator::paper_65nm()),
            ],
        }
    }

    /// The candidate regulators.
    pub fn candidates(&self) -> &[AnyRegulator] {
        &self.candidates
    }

    /// The candidate that serves `(v_in, v_out, p_out)` with the least
    /// input power, if any can serve it at all.
    pub fn best_candidate(
        &self,
        v_in: Volts,
        v_out: Volts,
        p_out: Watts,
    ) -> Option<(&AnyRegulator, Conversion)> {
        self.candidates
            .iter()
            .filter_map(|r| r.convert(v_in, v_out, p_out).ok().map(|c| (r, c)))
            .min_by(|a, b| a.1.p_in.watts().total_cmp(&b.1.p_in.watts()))
    }
}

impl Regulator for HybridRegulator {
    fn kind(&self) -> RegulatorKind {
        RegulatorKind::Hybrid
    }

    fn convert(
        &self,
        v_in: Volts,
        v_out: Volts,
        p_out: Watts,
    ) -> Result<Conversion, RegulatorError> {
        if !p_out.value().is_finite() || p_out.value() < 0.0 {
            return Err(RegulatorError::InvalidLoad {
                p_out: p_out.value(),
            });
        }
        match self.best_candidate(v_in, v_out, p_out) {
            Some((_, conversion)) => Ok(conversion),
            None => Err(RegulatorError::UnsupportedOperatingPoint {
                kind: "hybrid",
                v_in: v_in.volts(),
                v_out: v_out.volts(),
                reason: "no candidate topology can serve this point",
            }),
        }
    }

    fn output_range(&self, v_in: Volts) -> (Volts, Volts) {
        // The union's hull: min of candidate minima, max of maxima, over
        // candidates that can operate at all.
        let mut lo: Option<Volts> = None;
        let mut hi: Option<Volts> = None;
        for r in &self.candidates {
            let (c_lo, c_hi) = r.output_range(v_in);
            if c_hi <= Volts::ZERO {
                continue;
            }
            lo = Some(lo.map_or(c_lo, |v| v.min(c_lo)));
            hi = Some(hi.map_or(c_hi, |v| v.max(c_hi)));
        }
        match (lo, hi) {
            (Some(lo), Some(hi)) => (lo, hi),
            _ => (Volts::ZERO, Volts::ZERO),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BuckRegulator, ScRegulator};

    #[test]
    fn empty_bank_is_rejected() {
        assert!(HybridRegulator::new(vec![]).is_err());
    }

    #[test]
    fn hybrid_is_at_least_as_good_as_every_candidate() {
        let hybrid = HybridRegulator::paper_65nm();
        let sc = ScRegulator::paper_65nm();
        let buck = BuckRegulator::paper_65nm();
        for p_mw in [1.0, 5.0, 10.0, 20.0, 40.0] {
            let p = Watts::from_milli(p_mw);
            let h = hybrid
                .convert(Volts::new(1.2), Volts::new(0.55), p)
                .unwrap();
            for candidate in [&sc as &dyn Regulator, &buck] {
                if let Ok(c) = candidate.convert(Volts::new(1.2), Volts::new(0.55), p) {
                    assert!(
                        h.p_in <= c.p_in * (1.0 + 1e-12),
                        "hybrid worse than a candidate at {p_mw} mW"
                    );
                }
            }
        }
    }

    #[test]
    fn mux_switches_from_sc_to_buck_with_load() {
        let hybrid = HybridRegulator::paper_65nm();
        let at = |p_mw: f64| {
            hybrid
                .best_candidate(Volts::new(1.2), Volts::new(0.55), Watts::from_milli(p_mw))
                .map(|(r, _)| r.kind())
                .unwrap()
        };
        assert_eq!(at(10.0), RegulatorKind::SwitchedCapacitor);
        assert_eq!(at(40.0), RegulatorKind::Buck);
    }

    #[test]
    fn output_range_is_the_union_hull() {
        let hybrid = HybridRegulator::paper_65nm();
        let (lo, hi) = hybrid.output_range(Volts::new(1.2));
        // LDO reaches up to Vin - dropout (1.15 V), SC down to millivolts.
        assert!(lo.volts() <= 0.01);
        assert!(hi.volts() >= 1.1);
        // A dead rail serves nothing.
        assert_eq!(hybrid.output_range(Volts::ZERO), (Volts::ZERO, Volts::ZERO));
    }

    #[test]
    fn unreachable_point_is_an_error() {
        let hybrid = HybridRegulator::paper_65nm();
        assert!(matches!(
            hybrid.convert(Volts::new(0.4), Volts::new(0.55), Watts::from_milli(1.0)),
            Err(RegulatorError::UnsupportedOperatingPoint { .. })
        ));
        assert!(matches!(
            hybrid.convert(Volts::new(1.2), Volts::new(0.55), Watts::new(-1.0)),
            Err(RegulatorError::InvalidLoad { .. })
        ));
    }

    #[test]
    fn kind_reports_hybrid() {
        assert_eq!(HybridRegulator::paper_65nm().kind(), RegulatorKind::Hybrid);
        assert_eq!(RegulatorKind::Hybrid.to_string(), "hybrid");
    }
}
