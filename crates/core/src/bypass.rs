//! The low-light bypass policy (paper Section IV-B, Fig. 7a).
//!
//! Regulated MPP operation extracts the most from the cell — when the
//! regulator is efficient. At low light the processor load shrinks, the
//! converter's fixed losses loom large, and "the output power from
//! regulator becomes ~20 % less than delivered from a raw solar cell";
//! below that point the right move is to *bypass* the regulator and ride
//! the cell directly. This module quantifies the comparison and finds the
//! crossover light level.

use crate::{operating_point, optimal_voltage, CoreError, CpuEval};
use hems_pv::{Irradiance, SolarCell, SolarCellModel};
use hems_regulator::Regulator;
use hems_units::Watts;

/// Deliverable processor power under each path at one light level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathComparison {
    /// The light level compared.
    pub irradiance: Irradiance,
    /// Power the processor receives through the regulator at the optimal
    /// regulated plan (zero when infeasible).
    pub regulated: Watts,
    /// Power the processor receives riding the cell directly (zero when
    /// infeasible).
    pub bypassed: Watts,
}

impl PathComparison {
    /// `true` when bypassing beats regulation at this light level.
    pub fn bypass_wins(&self) -> bool {
        self.bypassed > self.regulated
    }
}

/// The crossover-finding policy.
#[derive(Debug, Clone)]
pub struct BypassPolicy {
    model: SolarCellModel,
    crossover: Irradiance,
}

impl BypassPolicy {
    /// Compares the two paths at one light level.
    ///
    /// Infeasible paths contribute zero deliverable power rather than an
    /// error, so the comparison is total.
    ///
    /// Generic over [`CpuEval`] (exact processor or `CpuLut`). The cell
    /// stays exact on purpose: each light level is visited once, so a
    /// per-irradiance `PvLut` rebuild would cost more than it saves.
    pub fn compare_at(
        model: &SolarCellModel,
        regulator: &dyn Regulator,
        cpu: &impl CpuEval,
        irradiance: Irradiance,
    ) -> PathComparison {
        let cell = SolarCell::new(model.clone(), irradiance);
        let regulated = optimal_voltage::optimal_regulated_plan(&cell, regulator, cpu)
            .map(|p| p.p_cpu)
            .unwrap_or(Watts::ZERO);
        let bypassed = operating_point::unregulated_point(&cell, cpu)
            .map(|p| p.power)
            .unwrap_or(Watts::ZERO);
        PathComparison {
            irradiance,
            regulated,
            bypassed,
        }
    }

    /// Builds a policy by locating the crossover light level below which
    /// bypass wins.
    ///
    /// Scans a 128-point grid over `[g_lo, g_hi]` (in very dim light *both*
    /// paths deliver zero, so a simple bisection on "bypass wins" has no
    /// bracketing sign change), finds the brightest grid cell where bypass
    /// still wins, then refines the boundary inside that cell.
    ///
    /// Cost: about 130 exact [`compare_at`](Self::compare_at) solves (the
    /// 128-point grid, then bisection to 1e-3). The result depends only on
    /// `(model, regulator, cpu)` and the range, not on today's light, so a
    /// request-path caller must calibrate once and hold the policy rather
    /// than calibrate per decision.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Infeasible`] when bypass never wins (or always
    /// wins) on the range — no crossover to calibrate.
    pub fn calibrate(
        model: &SolarCellModel,
        regulator: &dyn Regulator,
        cpu: &impl CpuEval,
        g_lo: Irradiance,
        g_hi: Irradiance,
    ) -> Result<BypassPolicy, CoreError> {
        let wins_at = |g: f64| {
            // Grid points interpolate between two valid irradiances, so g
            // is in range; the clamp guards endpoint round-off, and a
            // (theoretically unreachable) construction failure reads as
            // "bypass does not win" rather than a panic.
            Irradiance::new(g.clamp(0.0, 2.0))
                .map(|g| Self::compare_at(model, regulator, cpu, g).bypass_wins())
                .unwrap_or(false)
        };
        const GRID: usize = 128;
        let span = g_hi.fraction() - g_lo.fraction();
        let at = |i: usize| g_lo.fraction() + span * i as f64 / (GRID - 1) as f64;
        let last_win = (0..GRID).rev().find(|&i| wins_at(at(i)));
        let Some(last_win) = last_win else {
            return Err(CoreError::infeasible(
                "bypass crossover",
                format!("bypass never wins on [{g_lo}, {g_hi}]"),
            ));
        };
        if last_win == GRID - 1 {
            return Err(CoreError::infeasible(
                "bypass crossover",
                format!("bypass wins across all of [{g_lo}, {g_hi}]"),
            ));
        }
        let (mut lo, mut hi) = (at(last_win), at(last_win + 1));
        while hi - lo > 1e-3 {
            let mid = 0.5 * (lo + hi);
            if wins_at(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let crossover = Irradiance::new((0.5 * (lo + hi)).clamp(0.0, 2.0))
            .map_err(|e| CoreError::infeasible("bypass crossover", e.to_string()))?;
        Ok(BypassPolicy {
            model: model.clone(),
            crossover,
        })
    }

    /// The light level below which bypass wins.
    pub fn crossover(&self) -> Irradiance {
        self.crossover
    }

    /// `true` when the policy recommends bypassing at light level `g`.
    pub fn should_bypass(&self, g: Irradiance) -> bool {
        g < self.crossover
    }

    /// The calibrated cell model.
    pub fn model(&self) -> &SolarCellModel {
        &self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hems_cpu::Microprocessor;
    use hems_regulator::ScRegulator;

    fn fixtures() -> (SolarCellModel, ScRegulator, Microprocessor) {
        (
            SolarCellModel::kxob22(),
            ScRegulator::paper_65nm(),
            Microprocessor::paper_65nm(),
        )
    }

    #[test]
    fn regulation_wins_at_full_and_half_sun() {
        // Paper Fig. 7a: 30~40% more power at 100% and 50% light.
        let (model, sc, cpu) = fixtures();
        for g in [Irradiance::FULL_SUN, Irradiance::HALF_SUN] {
            let cmp = BypassPolicy::compare_at(&model, &sc, &cpu, g);
            assert!(!cmp.bypass_wins(), "{g}: bypass should lose");
            let gain = cmp.regulated / cmp.bypassed;
            assert!(
                (1.1..1.6).contains(&gain),
                "{g}: regulated/bypassed = {gain:.2} (paper: 1.3-1.4)"
            );
        }
    }

    #[test]
    fn bypass_wins_at_quarter_sun() {
        // Paper Fig. 7a: "under 25%, the output power from regulator
        // becomes ~20% less than delivered from a raw solar cell".
        let (model, sc, cpu) = fixtures();
        let cmp = BypassPolicy::compare_at(&model, &sc, &cpu, Irradiance::QUARTER_SUN);
        assert!(cmp.bypass_wins(), "bypass should win at quarter sun");
        // Our lumped SC loss model penalizes light load somewhat harder
        // than the paper's silicon (~20% deficit); the *shape* — bypass
        // winning below ~25% light — is the reproduced result.
        let deficit = 1.0 - cmp.regulated / cmp.bypassed;
        assert!(
            (0.05..0.65).contains(&deficit),
            "regulated deficit {:.1}% (paper ~20%)",
            deficit * 100.0
        );
    }

    #[test]
    fn crossover_sits_between_quarter_and_half_sun() {
        let (model, sc, cpu) = fixtures();
        let policy = BypassPolicy::calibrate(
            &model,
            &sc,
            &cpu,
            Irradiance::new(0.05).unwrap(),
            Irradiance::FULL_SUN,
        )
        .unwrap();
        let g = policy.crossover();
        assert!(
            g > Irradiance::QUARTER_SUN && g < Irradiance::new(0.6).unwrap(),
            "crossover at {g}"
        );
        assert!(policy.should_bypass(Irradiance::QUARTER_SUN));
        assert!(!policy.should_bypass(Irradiance::FULL_SUN));
    }

    #[test]
    fn degenerate_range_has_no_crossover() {
        let (model, sc, cpu) = fixtures();
        // Entirely in the bright regime: regulation wins everywhere.
        assert!(BypassPolicy::calibrate(
            &model,
            &sc,
            &cpu,
            Irradiance::new(0.8).unwrap(),
            Irradiance::FULL_SUN,
        )
        .is_err());
    }

    #[test]
    fn darkness_compares_as_zero_vs_zero() {
        let (model, sc, cpu) = fixtures();
        let cmp = BypassPolicy::compare_at(&model, &sc, &cpu, Irradiance::DARK);
        assert_eq!(cmp.regulated, Watts::ZERO);
        assert_eq!(cmp.bypassed, Watts::ZERO);
        assert!(!cmp.bypass_wins());
    }
}
