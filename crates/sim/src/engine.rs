use crate::{
    ControlDecision, Controller, EnergyLedger, EventKind, EventLog, Job, JobQueue, LightProfile,
    PowerPath, Sample, SimError, WaveformRecorder,
};
use hems_cpu::{CpuLut, Microprocessor};
use hems_pv::SolarCell;
use hems_regulator::{AnyRegulator, Regulator, ScRegulator};
use hems_storage::{Capacitor, ComparatorBank, Crossing};
use hems_units::{Cycles, Efficiency, Farads, Hertz, Seconds, UnitsError, Volts, Watts};

/// Cost of a DVFS operating-point change: the core clock-gates while the
/// regulator re-settles, and the transition itself burns energy in the
/// clock generator and converter reconfiguration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DvfsTransition {
    /// Time the core stalls per supply change.
    pub latency: Seconds,
    /// Energy burnt per supply change.
    pub energy: hems_units::Joules,
}

impl DvfsTransition {
    /// A typical fully-integrated setting: 20 µs settle, 50 nJ per switch
    /// (fast response is one of Fig. 1's stated benefits of integration —
    /// discrete-module systems pay far more).
    pub fn paper_integrated() -> DvfsTransition {
        DvfsTransition {
            latency: Seconds::from_micro(20.0),
            energy: hems_units::Joules::new(50e-9),
        }
    }
}

/// Static configuration of the simulated system — the hardware of the
/// paper's Fig. 10 test setup.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// The solar cell (light level is driven by the [`LightProfile`]).
    pub cell: SolarCell,
    /// Storage capacitor at the solar node.
    pub capacitor: Capacitor,
    /// The on-chip regulator between node and processor.
    pub regulator: AnyRegulator,
    /// The processor.
    pub cpu: Microprocessor,
    /// Board comparator thresholds (descending).
    pub comparator_thresholds: Vec<Volts>,
    /// Comparator hysteresis.
    pub comparator_hysteresis: Volts,
    /// Power-on-reset restart threshold: after a brownout the processor is
    /// held in reset until the solar node recovers above this voltage,
    /// as a real supervisor circuit would enforce.
    pub v_restart: Volts,
    /// Always-on board overhead drawn from the solar node whenever it holds
    /// charge: the monitoring comparators (the paper quotes < 0.1 µW each)
    /// plus the supervisor.
    pub p_standby: Watts,
    /// Optional DVFS transition penalty (`None` models ideal, instant
    /// transitions — the default, matching the analytical optimizers).
    pub dvfs_transition: Option<DvfsTransition>,
    /// Integration timestep.
    pub dt: Seconds,
}

impl SystemConfig {
    /// The paper's system with the switched-capacitor regulator.
    ///
    /// # Errors
    ///
    /// Never fails for the reference parameters; the `Result` mirrors the
    /// custom-configuration path.
    pub fn paper_sc_system() -> Result<SystemConfig, SimError> {
        Ok(SystemConfig {
            cell: SolarCell::kxob22(hems_pv::Irradiance::FULL_SUN),
            capacitor: Capacitor::paper_board(),
            regulator: AnyRegulator::from(ScRegulator::paper_65nm()),
            cpu: Microprocessor::paper_65nm(),
            comparator_thresholds: vec![Volts::new(1.1), Volts::new(1.0), Volts::new(0.9)],
            comparator_hysteresis: Volts::from_milli(10.0),
            v_restart: Volts::new(0.6),
            p_standby: Watts::from_micro(0.5),
            dvfs_transition: None,
            dt: Seconds::from_micro(50.0),
        })
    }

    /// The paper's system with the test chip's buck regulator (Section VII).
    ///
    /// # Errors
    ///
    /// Never fails for the reference parameters.
    pub fn paper_buck_system() -> Result<SystemConfig, SimError> {
        let mut cfg = SystemConfig::paper_sc_system()?;
        cfg.regulator = AnyRegulator::from(hems_regulator::BuckRegulator::paper_65nm());
        Ok(cfg)
    }

    /// The paper's system with the LDO.
    ///
    /// # Errors
    ///
    /// Never fails for the reference parameters.
    pub fn paper_ldo_system() -> Result<SystemConfig, SimError> {
        let mut cfg = SystemConfig::paper_sc_system()?;
        cfg.regulator = AnyRegulator::from(hems_regulator::Ldo::paper_65nm());
        Ok(cfg)
    }

    fn validate(&self) -> Result<(), SimError> {
        if !self.dt.is_positive() || self.dt.seconds() > 0.1 {
            return Err(UnitsError::OutOfRange {
                what: "simulation timestep",
                value: self.dt.value(),
                min: f64::MIN_POSITIVE,
                max: 0.1,
            }
            .into());
        }
        if !self.v_restart.is_positive() {
            return Err(UnitsError::OutOfRange {
                what: "power-on-reset threshold",
                value: self.v_restart.value(),
                min: f64::MIN_POSITIVE,
                max: f64::INFINITY,
            }
            .into());
        }
        // Comparator bank construction performs the threshold validation.
        ComparatorBank::new(&self.comparator_thresholds, self.comparator_hysteresis)
            .map_err(|e| SimError::component("comparator bank", e))?;
        Ok(())
    }
}

/// End-of-run summary.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationSummary {
    /// Energy accounting for the run.
    pub ledger: EnergyLedger,
    /// Number of brownout episodes.
    pub brownouts: usize,
    /// Jobs completed.
    pub completed_jobs: usize,
    /// Total clock cycles executed.
    pub total_cycles: Cycles,
    /// Solar-node voltage at the end of the run.
    pub final_v_solar: Volts,
}

/// The discrete-time simulator.
///
/// See the crate docs for the integration scheme; the public surface is
/// [`Simulation::run`] plus accessors for the ledger, events, job queue and
/// optional waveform recorder.
#[derive(Debug)]
pub struct Simulation {
    config: SystemConfig,
    light: LightProfile,
    cell: SolarCell,
    capacitor: Capacitor,
    bank: ComparatorBank,
    jobs: JobQueue,
    ledger: EnergyLedger,
    events: EventLog,
    recorder: Option<WaveformRecorder>,
    now: Seconds,
    crossings: Vec<Crossing>,
    last_p_harvest: Watts,
    last_p_cpu: Watts,
    last_efficiency: Efficiency,
    bypassed: bool,
    powered: bool,
    por_latched: bool,
    last_vdd: Volts,
    stall_until: Seconds,
    total_cycles: Cycles,
    cpu_lut: Option<CpuLut>,
    /// Scan cursor for `LightProfile::at_with_cursor` — time moves
    /// forward one `dt` per step, so outage-window lookup stays O(1).
    light_cursor: usize,
}

impl Simulation {
    /// Builds a simulation with the node pre-charged to `v_initial`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] when the configuration fails validation or the
    /// initial voltage exceeds the capacitor rating.
    pub fn new(
        config: SystemConfig,
        light: LightProfile,
        v_initial: Volts,
    ) -> Result<Simulation, SimError> {
        config.validate()?;
        let mut capacitor = config.capacitor.clone();
        capacitor
            .set_voltage(v_initial)
            .map_err(|e| SimError::component("capacitor", e))?;
        let bank = ComparatorBank::new(&config.comparator_thresholds, config.comparator_hysteresis)
            .map_err(|e| SimError::component("comparator bank", e))?;
        let cell = config.cell.clone();
        Ok(Simulation {
            config,
            light,
            cell,
            capacitor,
            bank,
            jobs: JobQueue::new(),
            ledger: EnergyLedger::new(),
            events: EventLog::new(),
            recorder: None,
            now: Seconds::ZERO,
            crossings: Vec::new(),
            last_p_harvest: Watts::ZERO,
            last_p_cpu: Watts::ZERO,
            last_efficiency: Efficiency::UNITY,
            bypassed: false,
            powered: true,
            por_latched: false,
            last_vdd: Volts::ZERO,
            stall_until: Seconds::ZERO,
            total_cycles: Cycles::ZERO,
            cpu_lut: None,
            light_cursor: 0,
        })
    }

    /// Enables waveform recording at the given decimation.
    ///
    /// # Panics
    ///
    /// Panics if `decimation` is zero.
    pub fn enable_recorder(&mut self, decimation: usize) {
        self.recorder = Some(WaveformRecorder::new(decimation));
    }

    /// Enqueues a job; returns its index.
    pub fn enqueue(&mut self, job: Job) -> usize {
        self.jobs.push(job)
    }

    /// Present simulation time.
    pub fn now(&self) -> Seconds {
        self.now
    }

    /// Present solar-node voltage.
    pub fn v_solar(&self) -> Volts {
        self.capacitor.voltage()
    }

    /// The energy ledger so far.
    pub fn ledger(&self) -> &EnergyLedger {
        &self.ledger
    }

    /// The event log so far.
    pub fn events(&self) -> &EventLog {
        &self.events
    }

    /// The job queue.
    pub fn jobs(&self) -> &JobQueue {
        &self.jobs
    }

    /// The waveform recorder, if enabled.
    pub fn recorder(&self) -> Option<&WaveformRecorder> {
        self.recorder.as_ref()
    }

    /// Total cycles executed so far.
    pub fn total_cycles(&self) -> Cycles {
        self.total_cycles
    }

    /// The static configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Installs the CPU table for the step hot path: it replaces the
    /// closed-form frequency/power evaluation inside [`resolve`]. Results
    /// then carry the LUT-parity contract (≤ 0.1 % on device quantities)
    /// instead of matching the exact models bitwise, but remain bitwise
    /// deterministic run-to-run for a fixed table. Harvest stays on the
    /// exact cell; the batch engine feeds its own slab power through
    /// [`Simulation::step_with_harvest`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] when the table was built for a different
    /// microprocessor than this simulation's configuration.
    pub fn install_cpu_lut(&mut self, cpu: CpuLut) -> Result<(), SimError> {
        if cpu.cpu() != &self.config.cpu {
            return Err(SimError::component(
                "cpu lut",
                "table was built for a different microprocessor",
            ));
        }
        self.cpu_lut = Some(cpu);
        Ok(())
    }

    fn cpu_fmax(&self, vdd: Volts) -> Hertz {
        match &self.cpu_lut {
            Some(lut) => lut.max_frequency(vdd),
            None => self.config.cpu.max_frequency(vdd),
        }
    }

    fn cpu_ptotal(&self, vdd: Volts, f: Hertz) -> Watts {
        match &self.cpu_lut {
            Some(lut) => lut.total_power(vdd, f),
            None => self.config.cpu.power_model().total(vdd, f),
        }
    }

    fn cpu_leakage(&self, vdd: Volts) -> Watts {
        match &self.cpu_lut {
            Some(lut) => lut.leakage(vdd),
            None => self.config.cpu.power_model().leakage(vdd),
        }
    }

    /// Advances one timestep under `controller`.
    pub fn step(&mut self, controller: &mut dyn Controller) {
        self.step_inner(controller, None);
    }

    /// Advances one timestep with the harvest power supplied by the caller.
    ///
    /// The batch sweep engine gathers the pre-step node voltages of a whole
    /// lane chunk into one slab, evaluates them through a single
    /// [`PvLut::power_at_many`] call, and feeds each lane its value here —
    /// the lane's own per-point evaluation is skipped. `p_harvest` must be
    /// the device model's power at [`Simulation::v_solar`] under the current
    /// light; the batch kernels are bit-identical to their scalar
    /// counterparts lane-for-lane, so results cannot depend on how lanes
    /// were grouped into slabs.
    pub fn step_with_harvest(&mut self, controller: &mut dyn Controller, p_harvest: Watts) {
        self.step_inner(controller, Some(p_harvest));
    }

    fn step_inner(&mut self, controller: &mut dyn Controller, supplied_harvest: Option<Watts>) {
        let dt = self.config.dt;
        self.cell
            .set_irradiance(self.light.at_with_cursor(self.now, &mut self.light_cursor));
        let v_solar = self.capacitor.voltage();

        let decision = {
            let view = crate::SystemView {
                now: self.now,
                dt,
                v_solar,
                crossings: &self.crossings,
                last_p_harvest: self.last_p_harvest,
                last_p_cpu: self.last_p_cpu,
                last_efficiency: self.last_efficiency,
                bypassed: self.bypassed,
                jobs: &self.jobs,
                cpu: &self.config.cpu,
                regulator: &self.config.regulator,
                capacitance: self.capacitor.capacitance(),
            };
            controller.decide(&view)
        };

        // Power-on-reset: once browned out, the supervisor holds the core
        // in reset until the node recovers above the restart threshold.
        if self.por_latched && v_solar >= self.config.v_restart {
            self.por_latched = false;
        }
        let mut resolved = if self.por_latched {
            ResolvedStep::browned_out()
        } else {
            self.resolve(decision, v_solar)
        };
        if resolved.browned_out {
            self.por_latched = true;
        }

        // DVFS transition penalty: a material supply change clock-gates the
        // core for the settle latency and burns the transition energy.
        let mut p_transition = Watts::ZERO;
        if let Some(transition) = self.config.dvfs_transition {
            let switching = resolved.vdd.is_positive()
                && self.last_vdd.is_positive()
                && (resolved.vdd - self.last_vdd).abs() > Volts::from_milli(5.0);
            if switching {
                self.stall_until = self.now + transition.latency;
                p_transition = transition.energy / dt;
            }
            if self.now < self.stall_until && !resolved.browned_out {
                // Stalled: clock-gated, only leakage flows to the core.
                resolved.frequency = Hertz::ZERO;
                let p_leak = self.cpu_leakage(resolved.vdd);
                resolved.p_drawn *= if resolved.p_cpu.is_positive() {
                    p_leak / resolved.p_cpu
                } else {
                    0.0
                };
                resolved.p_cpu = p_leak;
            }
        }
        if resolved.vdd.is_positive() {
            self.last_vdd = resolved.vdd;
        }
        let p_harvest = supplied_harvest.unwrap_or_else(|| self.cell.power_at(v_solar));
        // Always-on overhead: board standby plus capacitor self-discharge.
        let p_standby = if v_solar.is_positive() {
            self.config.p_standby + self.capacitor.leakage_power()
        } else {
            Watts::ZERO
        };

        // Integrate the storage node.
        self.capacitor
            .step_power(p_harvest - resolved.p_drawn - p_standby - p_transition, dt);

        // Comparators observe the post-step voltage.
        self.now += dt;
        self.crossings = self.bank.update(self.capacitor.voltage(), self.now);

        // Execute cycles and retire jobs.
        if resolved.frequency.is_positive() {
            let executed = resolved.frequency * dt;
            self.total_cycles += executed;
            for idx in self.jobs.advance(executed, self.now) {
                self.events
                    .push(self.now, EventKind::JobCompleted { index: idx });
            }
        }

        // Bookkeeping: events for power/bypass transitions.
        let now_powered =
            !matches!(resolved.effective_path, PowerPath::Sleep) || resolved.asleep_by_choice;
        if self.powered && resolved.browned_out {
            self.events.push(self.now, EventKind::Brownout);
            self.powered = false;
        } else if !self.powered && !resolved.browned_out {
            self.events.push(self.now, EventKind::Wakeup);
            self.powered = true;
        }
        let _ = now_powered;
        let now_bypassed = matches!(resolved.effective_path, PowerPath::Bypass);
        if now_bypassed && !self.bypassed {
            self.events.push(self.now, EventKind::BypassEngaged);
        } else if !now_bypassed && self.bypassed {
            self.events.push(self.now, EventKind::BypassDisengaged);
        }
        self.bypassed = now_bypassed;

        // Ledger.
        self.ledger.harvested += p_harvest * dt;
        self.ledger.delivered_to_cpu += resolved.p_cpu * dt;
        self.ledger.regulator_loss +=
            ((resolved.p_drawn - resolved.p_cpu).max(Watts::ZERO) + p_transition) * dt;
        self.ledger.standby_loss += p_standby * dt;
        self.ledger.total_time += dt;
        if resolved.frequency.is_positive() {
            self.ledger.active_time += dt;
        } else if resolved.browned_out {
            self.ledger.brownout_time += dt;
        } else {
            self.ledger.sleep_time += dt;
        }

        self.last_p_harvest = p_harvest;
        self.last_p_cpu = resolved.p_cpu;
        self.last_efficiency = resolved.efficiency;

        if let Some(recorder) = &mut self.recorder {
            recorder.offer(Sample {
                t: self.now,
                v_solar: self.capacitor.voltage(),
                vdd: resolved.vdd,
                frequency: resolved.frequency,
                p_harvest,
                p_drawn: resolved.p_drawn,
                p_cpu: resolved.p_cpu,
                bypassed: now_bypassed,
            });
        }
    }

    /// Runs under `controller` for `duration`, returning the summary.
    pub fn run(&mut self, controller: &mut dyn Controller, duration: Seconds) -> SimulationSummary {
        let steps = (duration.seconds() / self.config.dt.seconds()).round() as u64;
        for _ in 0..steps {
            self.step(controller);
        }
        self.summary()
    }

    /// The summary of everything simulated so far.
    pub fn summary(&self) -> SimulationSummary {
        SimulationSummary {
            ledger: self.ledger,
            brownouts: self.events.brownouts(),
            completed_jobs: self.jobs.completed(),
            total_cycles: self.total_cycles,
            final_v_solar: self.capacitor.voltage(),
        }
    }

    /// Resolves a control decision into physical quantities for one step.
    fn resolve(&self, decision: ControlDecision, v_solar: Volts) -> ResolvedStep {
        let cpu = &self.config.cpu;
        let fraction = decision.clock_fraction.clamp(f64::MIN_POSITIVE, 1.0);
        match decision.path {
            PowerPath::Sleep => ResolvedStep::asleep(),
            PowerPath::Bypass => {
                // The processor rides the node directly; above the window it
                // clamps internally, below it browns out.
                let vdd = v_solar.min(cpu.v_max());
                if vdd < cpu.v_min() {
                    return ResolvedStep::browned_out();
                }
                let frequency = self.cpu_fmax(vdd) * fraction;
                let p_cpu = self.cpu_ptotal(vdd, frequency);
                ResolvedStep {
                    effective_path: PowerPath::Bypass,
                    vdd,
                    frequency,
                    p_cpu,
                    p_drawn: p_cpu,
                    efficiency: Efficiency::UNITY,
                    browned_out: false,
                    asleep_by_choice: false,
                }
            }
            PowerPath::Regulated { vdd } => {
                let (lo, hi) = self.config.regulator.output_range(v_solar);
                if hi <= Volts::ZERO {
                    // Rail too low to regulate at all.
                    return ResolvedStep::browned_out();
                }
                let lo_bound = lo.max(cpu.v_min());
                let hi_bound = hi.min(cpu.v_max());
                if lo_bound > hi_bound {
                    // The regulator's reachable window and the processor's
                    // operating window do not intersect at this rail.
                    return ResolvedStep::browned_out();
                }
                let vdd = vdd.clamp(lo_bound, hi_bound);
                if !cpu.supports(vdd) {
                    return ResolvedStep::browned_out();
                }
                let frequency = self.cpu_fmax(vdd) * fraction;
                let p_cpu = self.cpu_ptotal(vdd, frequency);
                match self.config.regulator.convert(v_solar, vdd, p_cpu) {
                    Ok(conv) => ResolvedStep {
                        effective_path: PowerPath::Regulated { vdd },
                        vdd,
                        frequency,
                        p_cpu,
                        p_drawn: conv.p_in,
                        efficiency: conv.efficiency,
                        browned_out: false,
                        asleep_by_choice: false,
                    },
                    Err(_) => ResolvedStep::browned_out(),
                }
            }
        }
    }
}

/// Internal: a decision resolved into this step's physics.
#[derive(Debug, Clone, Copy)]
struct ResolvedStep {
    effective_path: PowerPath,
    vdd: Volts,
    frequency: Hertz,
    p_cpu: Watts,
    p_drawn: Watts,
    efficiency: Efficiency,
    browned_out: bool,
    asleep_by_choice: bool,
}

impl ResolvedStep {
    fn asleep() -> ResolvedStep {
        ResolvedStep {
            effective_path: PowerPath::Sleep,
            vdd: Volts::ZERO,
            frequency: Hertz::ZERO,
            p_cpu: Watts::ZERO,
            p_drawn: Watts::ZERO,
            efficiency: Efficiency::UNITY,
            browned_out: false,
            asleep_by_choice: true,
        }
    }

    fn browned_out() -> ResolvedStep {
        ResolvedStep {
            browned_out: true,
            asleep_by_choice: false,
            ..ResolvedStep::asleep()
        }
    }
}

/// Convenience: the capacitance of the configured storage capacitor.
impl Simulation {
    /// Storage capacitance at the solar node.
    pub fn capacitance(&self) -> Farads {
        self.capacitor.capacitance()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FixedVoltageController, SystemView};
    use hems_pv::Irradiance;

    fn sim_at(v0: f64) -> Simulation {
        let config = SystemConfig::paper_sc_system().unwrap();
        let light = LightProfile::constant(Irradiance::FULL_SUN);
        Simulation::new(config, light, Volts::new(v0)).unwrap()
    }

    #[test]
    fn sleeping_system_charges_to_voc() {
        /// Never runs the processor: pure charging.
        struct Asleep;
        impl Controller for Asleep {
            fn decide(&mut self, _view: &SystemView<'_>) -> ControlDecision {
                ControlDecision::sleep()
            }
        }
        let mut sim = sim_at(0.2);
        sim.run(&mut Asleep, Seconds::from_milli(200.0));
        // With no load the node floats to the open-circuit voltage.
        let voc = SolarCell::kxob22(Irradiance::FULL_SUN).open_circuit_voltage();
        assert!(
            (sim.v_solar() - voc).abs() < Volts::from_milli(30.0),
            "node at {}, Voc {}",
            sim.v_solar(),
            voc
        );
        assert_eq!(sim.ledger().duty_cycle(), 0.0);
    }

    #[test]
    fn heavy_load_discharges_the_node() {
        let mut sim = sim_at(1.1);
        // 0.8 V full speed is far beyond what the cell can sustain.
        let mut ctl = FixedVoltageController::new(Volts::new(0.8));
        let summary = sim.run(&mut ctl, Seconds::from_milli(100.0));
        assert!(summary.final_v_solar < Volts::new(1.0));
        assert!(summary.ledger.delivered_to_cpu.is_positive());
        assert!(summary.ledger.regulator_loss.is_positive());
    }

    #[test]
    fn sustainable_load_reaches_equilibrium() {
        let mut sim = sim_at(1.1);
        // A modest load the full-sun cell can sustain indefinitely.
        let mut ctl = FixedVoltageController::with_clock_fraction(Volts::new(0.5), 0.5);
        sim.run(&mut ctl, Seconds::from_milli(300.0));
        let v_mid = sim.v_solar();
        sim.run(&mut ctl, Seconds::from_milli(300.0));
        let v_end = sim.v_solar();
        // Node settles: drift in the second window is small.
        assert!(
            (v_end - v_mid).abs() < Volts::from_milli(20.0),
            "drifting {} -> {}",
            v_mid,
            v_end
        );
        assert!(sim.events().brownouts() == 0);
    }

    #[test]
    fn energy_is_conserved() {
        let mut sim = sim_at(1.1);
        let e0 = Capacitor::paper_board()
            .capacitance()
            .stored_energy(Volts::new(1.1));
        let mut ctl = FixedVoltageController::new(Volts::new(0.6));
        let summary = sim.run(&mut ctl, Seconds::from_milli(50.0));
        let e1 = sim
            .config()
            .capacitor
            .capacitance()
            .stored_energy(summary.final_v_solar);
        let lhs = summary.ledger.harvested + (e0 - e1);
        let rhs = summary.ledger.delivered_to_cpu
            + summary.ledger.regulator_loss
            + summary.ledger.standby_loss;
        let err = (lhs - rhs).abs().joules() / rhs.joules().max(1e-12);
        assert!(err < 0.02, "energy imbalance {:.2}%", err * 100.0);
    }

    #[test]
    fn dark_start_browns_out_then_recovers() {
        let config = SystemConfig::paper_sc_system().unwrap();
        let light = LightProfile::step(
            Irradiance::DARK,
            Irradiance::FULL_SUN,
            Seconds::from_milli(50.0),
        );
        let mut sim = Simulation::new(config, light, Volts::new(0.5)).unwrap();
        let mut ctl = FixedVoltageController::new(Volts::new(0.5));
        let summary = sim.run(&mut ctl, Seconds::from_milli(300.0));
        assert!(summary.brownouts >= 1, "expected at least one brownout");
        assert!(
            sim.events()
                .filter(|k| matches!(k, EventKind::Wakeup))
                .count()
                >= 1
        );
        assert!(summary.ledger.brownout_time.is_positive());
        // After the light returns the node recovers.
        assert!(summary.final_v_solar > Volts::new(0.45));
    }

    #[test]
    fn jobs_complete_and_are_logged() {
        let mut sim = sim_at(1.1);
        // 1 M cycles at ~136 MHz (0.55 V) is ~7.3 ms.
        sim.enqueue(Job::new(Cycles::new(1.0e6)));
        sim.enqueue(Job::new(Cycles::new(1.0e6)));
        let mut ctl = FixedVoltageController::new(Volts::new(0.55));
        let summary = sim.run(&mut ctl, Seconds::from_milli(40.0));
        assert_eq!(summary.completed_jobs, 2);
        assert_eq!(sim.events().completed_jobs(), 2);
        assert!(summary.total_cycles.count() >= 2.0e6);
    }

    #[test]
    fn recorder_captures_waveforms() {
        let mut sim = sim_at(1.1);
        sim.enable_recorder(10);
        let mut ctl = FixedVoltageController::new(Volts::new(0.55));
        sim.run(&mut ctl, Seconds::from_milli(10.0));
        let rec = sim.recorder().unwrap();
        // 10 ms / 50 us = 200 steps, decimated by 10 -> 20 samples.
        assert_eq!(rec.len(), 20);
        assert!(rec.samples().iter().all(|s| s.vdd == Volts::new(0.55)));
    }

    #[test]
    fn timestep_convergence() {
        // Halving dt changes the final voltage only marginally.
        let run_with_dt = |dt_us: f64| {
            let mut config = SystemConfig::paper_sc_system().unwrap();
            config.dt = Seconds::from_micro(dt_us);
            let light = LightProfile::constant(Irradiance::HALF_SUN);
            let mut sim = Simulation::new(config, light, Volts::new(1.1)).unwrap();
            let mut ctl = FixedVoltageController::new(Volts::new(0.55));
            sim.run(&mut ctl, Seconds::from_milli(50.0)).final_v_solar
        };
        let coarse = run_with_dt(100.0);
        let fine = run_with_dt(10.0);
        assert!(
            (coarse - fine).abs() < Volts::from_milli(5.0),
            "coarse {} vs fine {}",
            coarse,
            fine
        );
    }

    #[test]
    fn dvfs_transition_costs_penalize_thrashing() {
        /// Alternates between two voltages every step — worst case.
        struct Thrasher(bool);
        impl Controller for Thrasher {
            fn decide(&mut self, _v: &crate::SystemView<'_>) -> ControlDecision {
                self.0 = !self.0;
                ControlDecision::regulated(Volts::new(if self.0 { 0.5 } else { 0.6 }))
            }
        }
        let run = |transition: Option<DvfsTransition>| {
            let mut config = SystemConfig::paper_sc_system().unwrap();
            config.dvfs_transition = transition;
            let light = LightProfile::constant(Irradiance::FULL_SUN);
            let mut sim = Simulation::new(config, light, Volts::new(1.1)).unwrap();
            let mut ctl = Thrasher(false);
            sim.run(&mut ctl, Seconds::from_milli(100.0))
        };
        let ideal = run(None);
        let real = run(Some(DvfsTransition::paper_integrated()));
        assert!(
            real.total_cycles.count() < ideal.total_cycles.count() * 0.2,
            "thrashing with 20 us stalls should gut throughput: {} vs {}",
            real.total_cycles.count(),
            ideal.total_cycles.count()
        );
        // A steady controller is barely affected.
        let steady = |transition: Option<DvfsTransition>| {
            let mut config = SystemConfig::paper_sc_system().unwrap();
            config.dvfs_transition = transition;
            let light = LightProfile::constant(Irradiance::FULL_SUN);
            let mut sim = Simulation::new(config, light, Volts::new(1.1)).unwrap();
            let mut ctl = FixedVoltageController::new(Volts::new(0.55));
            sim.run(&mut ctl, Seconds::from_milli(100.0))
        };
        let a = steady(None);
        let b = steady(Some(DvfsTransition::paper_integrated()));
        assert!(
            (a.total_cycles.count() - b.total_cycles.count()).abs() < 0.01 * a.total_cycles.count()
        );
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut config = SystemConfig::paper_sc_system().unwrap();
        config.dt = Seconds::ZERO;
        assert!(Simulation::new(
            config,
            LightProfile::constant(Irradiance::FULL_SUN),
            Volts::new(1.0)
        )
        .is_err());
        let mut config = SystemConfig::paper_sc_system().unwrap();
        config.comparator_thresholds = vec![];
        assert!(Simulation::new(
            config,
            LightProfile::constant(Irradiance::FULL_SUN),
            Volts::new(1.0)
        )
        .is_err());
        // Initial voltage above the capacitor rating.
        assert!(Simulation::new(
            SystemConfig::paper_sc_system().unwrap(),
            LightProfile::constant(Irradiance::FULL_SUN),
            Volts::new(5.0)
        )
        .is_err());
    }

    #[test]
    fn the_cpu_lut_tracks_the_exact_step_path() {
        let run = |with_lut: bool| {
            let config = SystemConfig::paper_sc_system().unwrap();
            let light = LightProfile::constant(Irradiance::FULL_SUN);
            let mut sim = Simulation::new(config.clone(), light, Volts::new(1.1)).unwrap();
            if with_lut {
                sim.install_cpu_lut(CpuLut::build_default(config.cpu.clone()))
                    .unwrap();
            }
            let mut ctl = FixedVoltageController::new(Volts::new(0.55));
            sim.run(&mut ctl, Seconds::from_milli(100.0))
        };
        let exact = run(false);
        let lut = run(true);
        // Same discrete behaviour, device quantities within the transient
        // tolerance that per-step LUT error integrates to.
        assert_eq!(exact.brownouts, lut.brownouts);
        let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(1e-18);
        assert!(
            rel(
                lut.ledger.harvested.joules(),
                exact.ledger.harvested.joules()
            ) < 1e-2
        );
        assert!(rel(lut.total_cycles.count(), exact.total_cycles.count()) < 1e-2);
        assert!((lut.final_v_solar - exact.final_v_solar).abs() < Volts::from_milli(5.0));
    }

    #[test]
    fn a_cpu_lut_for_other_hardware_is_refused() {
        let mut sim = sim_at(1.1);
        let narrower = Microprocessor::new(
            hems_cpu::FrequencyModel::paper_65nm(),
            hems_cpu::PowerModel::paper_65nm(),
            Volts::new(0.5),
            Volts::new(1.0),
        )
        .unwrap();
        assert!(sim
            .install_cpu_lut(CpuLut::build_default(narrower))
            .is_err());
        let paper = CpuLut::build_default(Microprocessor::paper_65nm());
        assert!(sim.install_cpu_lut(paper).is_ok());
    }

    #[test]
    fn step_with_harvest_matches_step_when_fed_the_same_model() {
        let config = SystemConfig::paper_sc_system().unwrap();
        let light = LightProfile::constant(Irradiance::FULL_SUN);
        let mut plain = Simulation::new(config.clone(), light.clone(), Volts::new(1.1)).unwrap();
        let mut fed = Simulation::new(config.clone(), light, Volts::new(1.1)).unwrap();
        let mut ctl_a = FixedVoltageController::new(Volts::new(0.55));
        let mut ctl_b = FixedVoltageController::new(Volts::new(0.55));
        let cell = config.cell;
        for _ in 0..2000 {
            plain.step(&mut ctl_a);
            let p = cell.power_at(fed.v_solar());
            fed.step_with_harvest(&mut ctl_b, p);
        }
        assert_eq!(plain.summary(), fed.summary());
    }

    #[test]
    fn determinism_same_run_same_summary() {
        let go = || {
            let config = SystemConfig::paper_sc_system().unwrap();
            let light = LightProfile::clouds(
                Irradiance::QUARTER_SUN,
                Irradiance::FULL_SUN,
                Seconds::from_milli(20.0),
                Seconds::new(1.0),
                7,
            );
            let mut sim = Simulation::new(config, light, Volts::new(1.1)).unwrap();
            let mut ctl = FixedVoltageController::new(Volts::new(0.55));
            sim.run(&mut ctl, Seconds::from_milli(500.0))
        };
        assert_eq!(go(), go());
    }
}
