use crate::JobQueue;
use hems_cpu::{DvfsLadder, Microprocessor};
use hems_regulator::AnyRegulator;
use hems_storage::Crossing;
use hems_units::{Efficiency, Farads, Seconds, Volts, Watts};

/// Which path feeds the processor this step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PowerPath {
    /// Through the on-chip regulator at the given output voltage.
    Regulated {
        /// Requested processor supply voltage.
        vdd: Volts,
    },
    /// Regulator shorted out: the processor rides the solar node directly.
    Bypass,
    /// Processor power-gated; nothing is drawn from the node.
    Sleep,
}

/// A controller's per-step decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlDecision {
    /// The power path for this step.
    pub path: PowerPath,
    /// Clock as a fraction of the maximum frequency at the resulting
    /// supply voltage, in `(0, 1]`. Ignored while sleeping.
    pub clock_fraction: f64,
}

impl ControlDecision {
    /// Full speed through the regulator at `vdd`.
    pub fn regulated(vdd: Volts) -> ControlDecision {
        ControlDecision {
            path: PowerPath::Regulated { vdd },
            clock_fraction: 1.0,
        }
    }

    /// Full speed on the bypass path.
    pub fn bypass() -> ControlDecision {
        ControlDecision {
            path: PowerPath::Bypass,
            clock_fraction: 1.0,
        }
    }

    /// Power-gated.
    pub fn sleep() -> ControlDecision {
        ControlDecision {
            path: PowerPath::Sleep,
            clock_fraction: 1.0,
        }
    }

    /// The same decision at a reduced clock.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not in `(0, 1]`.
    pub fn at_clock_fraction(mut self, fraction: f64) -> ControlDecision {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "clock fraction must be in (0, 1], got {fraction}"
        );
        self.clock_fraction = fraction;
        self
    }
}

/// Everything a controller may observe before deciding.
///
/// Mirrors what the paper's firmware can see: the solar-node voltage (via
/// comparators), its own previous power draw and DVFS setting, comparator
/// events, and the job queue — but *not* the light level or the cell's I-V
/// curve, which are physical unknowns.
#[derive(Debug)]
pub struct SystemView<'a> {
    /// Simulation time.
    pub now: Seconds,
    /// Integration step.
    pub dt: Seconds,
    /// Present solar/storage node voltage.
    pub v_solar: Volts,
    /// Comparator crossings observed during the previous step.
    pub crossings: &'a [Crossing],
    /// Power harvested during the previous step (available only where a
    /// current sensor is assumed; the paper's scheme avoids needing it, but
    /// baselines like P&O use it).
    pub last_p_harvest: Watts,
    /// Power delivered to the CPU during the previous step.
    pub last_p_cpu: Watts,
    /// Regulator efficiency during the previous step.
    pub last_efficiency: Efficiency,
    /// `true` if the previous step ran on the bypass path.
    pub bypassed: bool,
    /// The job queue.
    pub jobs: &'a JobQueue,
    /// The processor model (for window/frequency queries).
    pub cpu: &'a Microprocessor,
    /// The configured regulator (for range/efficiency queries).
    pub regulator: &'a AnyRegulator,
    /// The storage capacitance at the solar node.
    pub capacitance: Farads,
}

/// The per-step policy hook.
pub trait Controller {
    /// Decides the power path and clock for the next step.
    fn decide(&mut self, view: &SystemView<'_>) -> ControlDecision;

    /// Short name for reports.
    fn name(&self) -> &'static str {
        "controller"
    }
}

/// Runs the processor at one fixed regulated voltage, full speed — the
/// naive baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct FixedVoltageController {
    vdd: Volts,
    clock_fraction: f64,
}

impl FixedVoltageController {
    /// Full speed at `vdd`.
    pub fn new(vdd: Volts) -> FixedVoltageController {
        FixedVoltageController {
            vdd,
            clock_fraction: 1.0,
        }
    }

    /// Reduced clock at `vdd`.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not in `(0, 1]`.
    pub fn with_clock_fraction(vdd: Volts, fraction: f64) -> FixedVoltageController {
        assert!(fraction > 0.0 && fraction <= 1.0);
        FixedVoltageController {
            vdd,
            clock_fraction: fraction,
        }
    }
}

impl Controller for FixedVoltageController {
    fn decide(&mut self, _view: &SystemView<'_>) -> ControlDecision {
        ControlDecision::regulated(self.vdd).at_clock_fraction(self.clock_fraction)
    }

    fn name(&self) -> &'static str {
        "fixed-voltage"
    }
}

/// Classic hysteretic duty cycling — the Hibernus-style baseline the
/// paper's Section I cites ("adapting sleep duty cycles to energy
/// availability"): sleep until the node charges to `v_run`, execute at a
/// fixed point until it sags to `v_stop`, repeat.
///
/// Needs no MPP knowledge, no comparator timing, no regulator smarts —
/// which is exactly why the holistic controller beats it whenever the
/// harvest could have been steered instead of ridden.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DutyCycleController {
    v_run: Volts,
    v_stop: Volts,
    vdd: Volts,
    running: bool,
}

impl DutyCycleController {
    /// Builds a duty cycler: run at `vdd` between the `v_run` (start) and
    /// `v_stop` (halt) node thresholds.
    ///
    /// # Panics
    ///
    /// Panics unless `v_run > v_stop > 0`.
    pub fn new(v_run: Volts, v_stop: Volts, vdd: Volts) -> DutyCycleController {
        assert!(
            v_run > v_stop && v_stop.is_positive(),
            "duty cycler needs v_run > v_stop > 0"
        );
        DutyCycleController {
            v_run,
            v_stop,
            vdd,
            running: false,
        }
    }

    /// The classic configuration for the paper's board: charge to 1.1 V,
    /// run at 0.55 V until the node sags to 0.7 V.
    pub fn paper_default() -> DutyCycleController {
        DutyCycleController::new(Volts::new(1.1), Volts::new(0.7), Volts::new(0.55))
    }
}

impl Controller for DutyCycleController {
    fn decide(&mut self, view: &SystemView<'_>) -> ControlDecision {
        if self.running {
            if view.v_solar < self.v_stop {
                self.running = false;
            }
        } else if view.v_solar >= self.v_run {
            self.running = true;
        }
        if self.running {
            ControlDecision::regulated(self.vdd)
        } else {
            ControlDecision::sleep()
        }
    }

    fn name(&self) -> &'static str {
        "duty-cycle"
    }
}

/// Periodic open-circuit sampling windows (for the fractional-Voc
/// baseline): every `period` the load disconnects for `duration` so the
/// node floats toward `Voc`, and the voltage at the end of the window is
/// reported to the tracker as a `v_oc_sample`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OcSampling {
    /// Time between sampling windows.
    pub period: Seconds,
    /// Length of each disconnect window.
    pub duration: Seconds,
}

/// DVFS-based MPP tracking: wraps any [`hems_mppt::MppTracker`] and turns
/// its solar-node voltage target into load modulation, as the paper's fully
/// integrated system does ("the dynamic load can be adaptively tuned by
/// adjusting clock and supply voltage to the microprocessor").
///
/// The feedback is a quantized integral controller on the DVFS ladder: if
/// the node floats above the target the harvester has spare power, so the
/// load steps one rung up; if the node sags below, the load steps down.
pub struct MpptDvfsController {
    tracker: Box<dyn hems_mppt::MppTracker>,
    ladder: DvfsLadder,
    level: usize,
    target: Volts,
    deadband: Volts,
    control_period: Seconds,
    next_control: Seconds,
    expose_power_sensor: bool,
    oc_sampling: Option<OcSampling>,
    oc_window_end: Option<Seconds>,
    next_oc_sample: Seconds,
    pending_voc: Option<Volts>,
}

impl std::fmt::Debug for MpptDvfsController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MpptDvfsController")
            .field("tracker", &self.tracker.name())
            .field("level", &self.level)
            .field("target", &self.target)
            .finish_non_exhaustive()
    }
}

impl MpptDvfsController {
    /// Wraps `tracker` over `ladder`, re-planning every `control_period`.
    pub fn new(
        tracker: Box<dyn hems_mppt::MppTracker>,
        ladder: DvfsLadder,
        control_period: Seconds,
    ) -> MpptDvfsController {
        let level = ladder.levels().len() / 2;
        MpptDvfsController {
            tracker,
            ladder,
            level,
            target: Volts::new(1.1),
            deadband: Volts::from_milli(20.0),
            control_period,
            next_control: Seconds::ZERO,
            expose_power_sensor: false,
            oc_sampling: None,
            oc_window_end: None,
            next_oc_sample: Seconds::ZERO,
            pending_voc: None,
        }
    }

    /// Grants the tracker a harvest-power sensor (needed by P&O).
    pub fn with_power_sensor(mut self) -> Self {
        self.expose_power_sensor = true;
        self
    }

    /// Enables periodic open-circuit sampling (needed by fractional-Voc).
    pub fn with_oc_sampling(mut self, sampling: OcSampling) -> Self {
        self.oc_sampling = Some(sampling);
        self.next_oc_sample = sampling.period;
        self
    }

    /// The tracker's present solar-node voltage target.
    pub fn target(&self) -> Volts {
        self.target
    }
}

impl Controller for MpptDvfsController {
    fn decide(&mut self, view: &SystemView<'_>) -> ControlDecision {
        // Open-circuit sampling window handling.
        if let Some(sampling) = self.oc_sampling {
            if let Some(end) = self.oc_window_end {
                if view.now >= end {
                    // Window over: the floated node voltage is the sample.
                    self.pending_voc = Some(view.v_solar);
                    self.oc_window_end = None;
                    self.next_oc_sample = view.now + sampling.period;
                } else {
                    return ControlDecision::sleep();
                }
            } else if view.now >= self.next_oc_sample {
                self.oc_window_end = Some(view.now + sampling.duration);
                return ControlDecision::sleep();
            }
        }

        if view.now >= self.next_control || !view.crossings.is_empty() {
            self.next_control = view.now + self.control_period;
            let mut obs = hems_mppt::Observation::basic(
                view.now,
                view.v_solar,
                view.last_p_cpu,
                view.last_efficiency,
            );
            obs.crossings = view.crossings.to_vec();
            if self.expose_power_sensor {
                obs.p_solar_measured = Some(view.last_p_harvest);
            }
            obs.v_oc_sample = self.pending_voc.take();
            self.target = self.tracker.update(&obs);

            // Quantized proportional feedback on the ladder: large errors
            // move several rungs at once so a sudden cloud cannot outrun
            // the controller into a brownout. Held while the tracker is
            // mid-measurement — its estimate assumes constant draw.
            if !self.tracker.is_measuring() {
                let error = view.v_solar - self.target;
                let top = self.ladder.levels().len() - 1;
                let rungs = ((error.abs() / self.deadband) as usize).min(3);
                if error > self.deadband {
                    self.level = (self.level + rungs).min(top);
                } else if error < -self.deadband {
                    self.level = self.level.saturating_sub(rungs);
                }
            }
        }
        // Emergency load shed: the node is about to collapse below the
        // processor's window — drop to the lightest rung immediately.
        if view.v_solar < Volts::new(0.55) && !self.tracker.is_measuring() {
            self.level = 0;
        }
        let vdd = self.ladder.levels()[self.level];
        ControlDecision::regulated(vdd)
    }

    fn name(&self) -> &'static str {
        "mppt-dvfs"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decision_constructors() {
        let d = ControlDecision::regulated(Volts::new(0.55));
        assert_eq!(
            d.path,
            PowerPath::Regulated {
                vdd: Volts::new(0.55)
            }
        );
        assert_eq!(d.clock_fraction, 1.0);
        let d = ControlDecision::bypass().at_clock_fraction(0.5);
        assert_eq!(d.path, PowerPath::Bypass);
        assert_eq!(d.clock_fraction, 0.5);
        assert_eq!(ControlDecision::sleep().path, PowerPath::Sleep);
    }

    #[test]
    #[should_panic(expected = "clock fraction")]
    fn zero_clock_fraction_rejected() {
        let _ = ControlDecision::bypass().at_clock_fraction(0.0);
    }

    #[test]
    fn controller_names() {
        assert_eq!(
            FixedVoltageController::new(Volts::new(0.5)).name(),
            "fixed-voltage"
        );
        assert_eq!(DutyCycleController::paper_default().name(), "duty-cycle");
    }

    #[test]
    fn duty_cycle_hysteresis() {
        use crate::{LightProfile, Simulation, SystemConfig};
        use hems_pv::Irradiance;
        use hems_units::Seconds;
        let config = SystemConfig::paper_sc_system().unwrap();
        let light = LightProfile::constant(Irradiance::HALF_SUN);
        let mut sim = Simulation::new(config, light, Volts::new(0.8)).unwrap();
        let mut ctl = DutyCycleController::paper_default();
        let summary = sim.run(&mut ctl, Seconds::from_milli(500.0));
        // Half sun cannot sustain full speed at 0.55 V, so the node cycles:
        // both run and sleep phases occur, with no brownouts (it halts at
        // 0.7 V, well above the processor floor).
        assert!(summary.ledger.active_time.is_positive());
        assert!(summary.ledger.sleep_time.is_positive());
        assert_eq!(summary.brownouts, 0);
        let duty = summary.ledger.duty_cycle();
        assert!(duty > 0.05 && duty < 0.95, "duty {duty}");
    }

    #[test]
    #[should_panic(expected = "v_run > v_stop")]
    fn duty_cycle_rejects_inverted_thresholds() {
        let _ = DutyCycleController::new(Volts::new(0.7), Volts::new(1.1), Volts::new(0.5));
    }

    #[test]
    fn oc_sampling_windows_disconnect_and_sample() {
        use crate::{LightProfile, Simulation, SystemConfig};
        use hems_mppt::FractionalVoc;
        use hems_pv::Irradiance;
        use hems_units::Seconds;
        let config = SystemConfig::paper_sc_system().unwrap();
        let light = LightProfile::constant(Irradiance::HALF_SUN);
        let mut sim = Simulation::new(config, light, Volts::new(1.0)).unwrap();
        let mut ctl = MpptDvfsController::new(
            Box::new(FractionalVoc::paper_default()),
            hems_cpu::DvfsLadder::paper_65nm(),
            Seconds::from_milli(1.0),
        )
        .with_oc_sampling(OcSampling {
            period: Seconds::from_milli(100.0),
            duration: Seconds::from_milli(15.0),
        });
        let summary = sim.run(&mut ctl, Seconds::from_milli(500.0));
        // Sampling windows show up as sleep time; the tracker's target
        // converges toward k*Voc of half sun (0.74 * 1.36 ~ 1.01 V).
        assert!(summary.ledger.sleep_time > Seconds::from_milli(30.0));
        assert!(summary.total_cycles.count() > 1e6);
        let t = ctl.target();
        assert!(
            (t.volts() - 1.0).abs() < 0.08,
            "fractional-Voc target {t} (expected ~1.0 V at half sun)"
        );
    }
}
