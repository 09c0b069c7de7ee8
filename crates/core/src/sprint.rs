//! The "sprinting" schedule (paper Section VI-B, eqs. 12–13, Fig. 9b).
//!
//! Under a deadline with dimming light, a constant-speed schedule drags the
//! solar node steadily down through the cell's high-power region. Sprinting
//! reshapes the draw — run `(1-β)` of nominal speed in the first half, then
//! `(1+β)` in the second half — so the node lingers near the (new) maximum
//! power point early, where each second harvests more, and only dives
//! through the low-power tail at the end. The same total cycles complete by
//! the same deadline, but ≈ 10 % more solar energy is absorbed at β = 20 %
//! (Fig. 11b).

use crate::{CoreError, PvSourceBatch};
use hems_storage::Capacitor;
use hems_units::{Joules, Seconds, UnitsError, Volts, Watts};

/// A two-phase sprint schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SprintPlan {
    /// The sprint factor β in `[0, 1)`: first half runs at `(1-β)`×nominal
    /// speed, second half at `(1+β)`×.
    pub beta: f64,
    /// Total schedule length.
    pub duration: Seconds,
    /// Nominal (constant-schedule) drawn power from the node.
    pub p_nominal: Watts,
}

/// Outcome of comparing a sprint schedule against constant speed on the
/// same discharge transient.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SprintComparison {
    /// Solar energy absorbed by the constant-speed schedule.
    pub e_solar_constant: Joules,
    /// Solar energy absorbed by the sprint schedule.
    pub e_solar_sprint: Joules,
    /// Node voltage at the end of the constant-speed schedule.
    pub v_end_constant: Volts,
    /// Node voltage at the end of the sprint schedule.
    pub v_end_sprint: Volts,
}

impl SprintComparison {
    /// Fractional extra solar energy from sprinting (eq. 12's ΔE as a
    /// fraction of the constant-schedule harvest).
    pub fn extra_energy_fraction(&self) -> f64 {
        if self.e_solar_constant.is_positive() {
            self.e_solar_sprint / self.e_solar_constant - 1.0
        } else {
            0.0
        }
    }
}

impl SprintPlan {
    /// Builds a plan.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] when `beta` is outside `[0, 1)`, the duration
    /// is non-positive, or the nominal power is non-positive.
    pub fn new(beta: f64, duration: Seconds, p_nominal: Watts) -> Result<SprintPlan, CoreError> {
        if !beta.is_finite() || !(0.0..1.0).contains(&beta) {
            return Err(CoreError::component(
                "sprint plan",
                UnitsError::OutOfRange {
                    what: "sprint factor beta",
                    value: beta,
                    min: 0.0,
                    max: 1.0,
                },
            ));
        }
        if !duration.is_positive() || !p_nominal.is_positive() {
            return Err(CoreError::infeasible(
                "sprint plan",
                "duration and nominal power must be positive".to_string(),
            ));
        }
        Ok(SprintPlan {
            beta,
            duration,
            p_nominal,
        })
    }

    /// The paper's 20 % sprint.
    ///
    /// # Errors
    ///
    /// Propagates validation failures for degenerate duration/power.
    pub fn paper_20_percent(duration: Seconds, p_nominal: Watts) -> Result<SprintPlan, CoreError> {
        SprintPlan::new(0.2, duration, p_nominal)
    }

    /// Drawn power at elapsed time `t` into the schedule: `(1-β)·P` in the
    /// first half, `(1+β)·P` in the second (clamped beyond the end).
    pub fn drawn_power(&self, t: Seconds) -> Watts {
        if t < self.duration * 0.5 {
            self.p_nominal * (1.0 - self.beta)
        } else {
            self.p_nominal * (1.0 + self.beta)
        }
    }

    /// Simulates the discharge transient under both schedules on the same
    /// plant (a quasi-static explicit integration at `dt`) and compares the
    /// harvested solar energy — the quantity behind eqs. 12–13.
    ///
    /// `cell` should already be at the *dimmed* light level; `capacitor`
    /// provides the initial node voltage. Generic over [`PvSourceBatch`]:
    /// pass the exact [`hems_pv::SolarCell`] for the reference transient or
    /// a [`hems_pv::PvLut`] to run the whole schedule off table lookups.
    pub fn compare_against_constant(
        &self,
        cell: &impl PvSourceBatch,
        capacitor: &Capacitor,
        dt: Seconds,
    ) -> SprintComparison {
        let mut out = Self::sweep_betas(
            &[self.beta],
            self.duration,
            self.p_nominal,
            cell,
            capacitor,
            dt,
        )
        // hems-lint: allow(panic, reason = "a validated plan's own beta re-validates cleanly")
        .expect("a validated plan's beta sweeps cleanly");
        // hems-lint: allow(panic, reason = "one beta in produces exactly one comparison")
        out.pop().expect("one beta in, one comparison out")
    }

    /// Sweeps a family of sprint factors through one lockstep transient:
    /// lane 0 integrates the shared constant-speed schedule, and each beta
    /// gets its own capacitor lane. Every step gathers the lanes' node
    /// voltages into one slab and makes a single
    /// [`PvSourceBatch::source_power_many`] call, so the per-step model
    /// cost is one batch evaluation instead of `betas + 1` scalar solves —
    /// the shape Fig. 11b's beta sweep wants. Each lane's trajectory is
    /// bit-identical to running [`SprintPlan::compare_against_constant`]
    /// for that beta alone.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] when any `beta` is outside `[0, 1)` or the
    /// duration/power is non-positive, like [`SprintPlan::new`].
    pub fn sweep_betas(
        betas: &[f64],
        duration: Seconds,
        p_nominal: Watts,
        cell: &impl PvSourceBatch,
        capacitor: &Capacitor,
        dt: Seconds,
    ) -> Result<Vec<SprintComparison>, CoreError> {
        let plans: Vec<SprintPlan> = betas
            .iter()
            .map(|&beta| SprintPlan::new(beta, duration, p_nominal))
            .collect::<Result<_, _>>()?;
        if plans.is_empty() {
            return Ok(Vec::new());
        }
        // Lane 0 is the shared constant schedule; lane k+1 sprints at
        // betas[k]. SoA slabs are allocated once and reused every step.
        let lanes = plans.len() + 1;
        let mut caps: Vec<Capacitor> = (0..lanes).map(|_| capacitor.clone()).collect();
        let mut harvested = vec![Joules::ZERO; lanes];
        let mut vs = vec![0.0; lanes];
        let mut ps = vec![0.0; lanes];
        let steps = (duration.seconds() / dt.seconds()).round() as u64;
        for i in 0..steps {
            let t = Seconds::new(i as f64 * dt.seconds());
            for (v, cap) in vs.iter_mut().zip(&caps) {
                *v = cap.voltage().volts();
            }
            cell.source_power_many(&vs, &mut ps);
            let rows = caps.iter_mut().zip(&ps).zip(harvested.iter_mut());
            for (lane, ((cap, &p), h)) in rows.enumerate() {
                let p_solar = Watts::new(p);
                *h += p_solar * dt;
                // Lane 0 is the constant schedule; lane k+1 sprints betas[k].
                let p_draw = match lane.checked_sub(1).and_then(|k| plans.get(k)) {
                    Some(plan) => plan.drawn_power(t),
                    None => p_nominal,
                };
                cap.step_power(p_solar - p_draw, dt);
            }
        }
        let e_solar_constant = harvested.first().copied().unwrap_or(Joules::ZERO);
        let v_end_constant = caps.first().map_or(capacitor.voltage(), Capacitor::voltage);
        Ok(harvested
            .iter()
            .zip(&caps)
            .skip(1)
            .map(|(&e_solar_sprint, cap)| SprintComparison {
                e_solar_constant,
                e_solar_sprint,
                v_end_constant,
                v_end_sprint: cap.voltage(),
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hems_pv::{Irradiance, PvLut, SolarCell};

    /// The Fig. 11b scenario: light just dimmed to quarter sun, node still
    /// charged to 1.2 V, job draws ~6 mW nominal for 30 ms.
    fn fig11_setup() -> (SolarCell, Capacitor, SprintPlan) {
        let cell = SolarCell::kxob22(Irradiance::QUARTER_SUN);
        let mut cap = Capacitor::paper_board();
        cap.set_voltage(Volts::new(1.2)).unwrap();
        let plan = SprintPlan::paper_20_percent(Seconds::from_milli(30.0), Watts::from_milli(6.0))
            .unwrap();
        (cell, cap, plan)
    }

    #[test]
    fn sprinting_absorbs_more_solar_energy() {
        // Paper: "10% more energy was absorbed from solar cell by sprinting
        // operation at 20% rate".
        let (cell, cap, plan) = fig11_setup();
        let cmp = plan.compare_against_constant(&cell, &cap, Seconds::from_micro(20.0));
        let extra = cmp.extra_energy_fraction();
        assert!(
            (0.02..0.25).contains(&extra),
            "sprinting gained {:.1}% (paper ~10%)",
            extra * 100.0
        );
    }

    #[test]
    fn gain_grows_with_beta_then_plateaus() {
        let (cell, cap, _) = fig11_setup();
        let gain_at = |beta: f64| {
            let plan =
                SprintPlan::new(beta, Seconds::from_milli(30.0), Watts::from_milli(6.0)).unwrap();
            plan.compare_against_constant(&cell, &cap, Seconds::from_micro(20.0))
                .extra_energy_fraction()
        };
        assert!(gain_at(0.0).abs() < 1e-9);
        assert!(gain_at(0.2) > gain_at(0.1));
        assert!(gain_at(0.4) > gain_at(0.2) * 0.9); // monotone-ish, may flatten
    }

    #[test]
    fn schedules_draw_the_same_total() {
        let plan = SprintPlan::new(0.3, Seconds::from_milli(20.0), Watts::from_milli(5.0)).unwrap();
        // Integrate drawn power over the schedule.
        let dt = Seconds::from_micro(10.0);
        let steps = (plan.duration.seconds() / dt.seconds()).round() as u64;
        let mut total = Joules::ZERO;
        for i in 0..steps {
            total += plan.drawn_power(Seconds::new(i as f64 * dt.seconds())) * dt;
        }
        // Both schedules do the constant schedule's work: P · T.
        let expected = plan.p_nominal * plan.duration;
        assert!(
            (total - expected).abs().joules() < 1e-3 * expected.joules(),
            "total {total:?} vs expected {expected:?}"
        );
    }

    #[test]
    fn drawn_power_switches_at_half_time() {
        let plan =
            SprintPlan::new(0.2, Seconds::from_milli(10.0), Watts::from_milli(10.0)).unwrap();
        assert!((plan.drawn_power(Seconds::from_milli(2.0)).to_milli() - 8.0).abs() < 1e-9);
        assert!((plan.drawn_power(Seconds::from_milli(7.0)).to_milli() - 12.0).abs() < 1e-9);
    }

    #[test]
    fn sprint_ends_lower_but_harvests_more() {
        // The sprint spends its capacitor harder at the end — that's the
        // point: the energy came from the *sun*, not the cap.
        let (cell, cap, plan) = fig11_setup();
        let cmp = plan.compare_against_constant(&cell, &cap, Seconds::from_micro(20.0));
        assert!(cmp.e_solar_sprint > cmp.e_solar_constant);
    }

    #[test]
    fn constructor_validates() {
        assert!(SprintPlan::new(1.0, Seconds::new(1.0), Watts::new(1.0)).is_err());
        assert!(SprintPlan::new(-0.1, Seconds::new(1.0), Watts::new(1.0)).is_err());
        assert!(SprintPlan::new(0.2, Seconds::ZERO, Watts::new(1.0)).is_err());
        assert!(SprintPlan::new(0.2, Seconds::new(1.0), Watts::ZERO).is_err());
    }

    #[test]
    fn sweep_betas_matches_per_beta_comparisons_bitwise() {
        let (cell, cap, _) = fig11_setup();
        let dt = Seconds::from_micro(20.0);
        let duration = Seconds::from_milli(30.0);
        let p = Watts::from_milli(6.0);
        let betas = [0.0, 0.1, 0.2, 0.4];
        let swept = SprintPlan::sweep_betas(&betas, duration, p, &cell, &cap, dt).unwrap();
        assert_eq!(swept.len(), betas.len());
        for (k, &beta) in betas.iter().enumerate() {
            let solo = SprintPlan::new(beta, duration, p)
                .unwrap()
                .compare_against_constant(&cell, &cap, dt);
            assert_eq!(
                swept[k].e_solar_sprint.joules().to_bits(),
                solo.e_solar_sprint.joules().to_bits(),
                "beta={beta}"
            );
            assert_eq!(
                swept[k].e_solar_constant.joules().to_bits(),
                solo.e_solar_constant.joules().to_bits()
            );
            assert_eq!(
                swept[k].v_end_sprint.volts().to_bits(),
                solo.v_end_sprint.volts().to_bits()
            );
        }
        assert!(SprintPlan::sweep_betas(&[], duration, p, &cell, &cap, dt)
            .unwrap()
            .is_empty());
        assert!(SprintPlan::sweep_betas(&[1.5], duration, p, &cell, &cap, dt).is_err());
    }

    #[test]
    fn lut_transient_tracks_the_exact_one() {
        // The sprint solver is generic over PvSourceBatch: a PvLut-driven
        // transient must land within the table's ≤0.1 % parity budget of
        // the exact integration.
        let (cell, cap, plan) = fig11_setup();
        let lut = PvLut::build_default(cell.clone()).unwrap();
        let dt = Seconds::from_micro(20.0);
        let exact = plan.compare_against_constant(&cell, &cap, dt);
        let fast = plan.compare_against_constant(&lut, &cap, dt);
        let rel = (fast.extra_energy_fraction() - exact.extra_energy_fraction()).abs();
        assert!(rel < 1e-2, "sprint gain diverged by {rel:.2e}");
        assert!(
            (fast.e_solar_sprint.joules() - exact.e_solar_sprint.joules()).abs()
                <= 2e-3 * exact.e_solar_sprint.joules()
        );
    }
}
