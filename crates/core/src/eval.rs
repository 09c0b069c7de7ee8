//! Model-evaluation abstraction: exact device models and their LUTs,
//! interchangeable inside every solver.
//!
//! The solvers in this crate ([`crate::optimal_voltage`],
//! [`crate::frontier`], [`crate::mep`], [`crate::bypass`]) are generic
//! over two small traits rather than hard-wired to [`SolarCell`] and
//! [`Microprocessor`]. Passing the exact models gives the reference
//! answer; passing a [`PvLut`]/[`CpuLut`] pair gives the same answer to
//! ≤0.1 % from O(1) table lookups (the conformance plane's `solver_lut`
//! oracle holds the pair to that contract). One solver body serves both,
//! so the fast path can never diverge from the exact one in anything but
//! interpolation error.
//!
//! The regulator deliberately stays exact everywhere: its conversion math
//! is closed-form (no inner solves to amortize), and the SC topology's
//! ratio cliffs make voltage-axis interpolation hazardous.

use hems_cpu::{CpuLut, Microprocessor};
use hems_pv::{Mpp, PvError, PvLut, SolarCell};
use hems_units::{Hertz, Joules, Volts, Watts};

/// LUT hit/miss telemetry on the process-global registry (DESIGN.md
/// §12): a *hit* is a query answered from a table, a *miss* is one
/// that fell back to (or deliberately chose) the exact device model.
/// Counted on the dominant solver queries — PV power-at-voltage and
/// CPU max-frequency — so the sweeps' fast-path/exact-path mix shows
/// up in `metrics` snapshots without instrumenting every accessor.
mod obs {
    use std::sync::LazyLock;

    use hems_obs::{global, Counter};

    pub(super) static PV_HITS: LazyLock<Counter> =
        LazyLock::new(|| global().counter("core.lut.pv_hits"));
    pub(super) static PV_MISSES: LazyLock<Counter> =
        LazyLock::new(|| global().counter("core.lut.pv_misses"));
    pub(super) static CPU_HITS: LazyLock<Counter> =
        LazyLock::new(|| global().counter("core.lut.cpu_hits"));
    pub(super) static CPU_MISSES: LazyLock<Counter> =
        LazyLock::new(|| global().counter("core.lut.cpu_misses"));
}

/// A photovoltaic source the solvers can query: either the exact
/// [`SolarCell`] (implicit single-diode solve per call) or a [`PvLut`]
/// (table lookup per call).
pub trait PvSource {
    /// Terminal power at voltage `v`.
    fn source_power(&self, v: Volts) -> Watts;

    /// The maximum power point.
    ///
    /// # Errors
    ///
    /// Returns [`PvError`] in darkness, where no MPP exists.
    fn source_mpp(&self) -> Result<Mpp, PvError>;

    /// The open-circuit voltage (upper edge of the useful window).
    fn source_voc(&self) -> Volts;
}

impl PvSource for SolarCell {
    fn source_power(&self, v: Volts) -> Watts {
        obs::PV_MISSES.inc();
        self.power_at(v)
    }

    fn source_mpp(&self) -> Result<Mpp, PvError> {
        self.mpp()
    }

    fn source_voc(&self) -> Volts {
        self.open_circuit_voltage()
    }
}

impl PvSource for PvLut {
    fn source_power(&self, v: Volts) -> Watts {
        obs::PV_HITS.inc();
        self.power_at(v)
    }

    fn source_mpp(&self) -> Result<Mpp, PvError> {
        Ok(self.mpp())
    }

    fn source_voc(&self) -> Volts {
        self.open_circuit_voltage()
    }
}

/// A processor model the solvers can query: either the exact
/// [`Microprocessor`] (alpha-power `powf` + exponential leakage per call)
/// or a [`CpuLut`] (table lookups for the transcendental pieces).
///
/// Window bookkeeping (`v_min`, `v_max`, frequency→voltage inversion,
/// the conventional MEP) always comes from the underlying processor via
/// [`CpuEval::processor`] — those are either cheap or solved once, so
/// tabulating them buys nothing.
pub trait CpuEval {
    /// The underlying exact processor (window, models, inversions).
    fn processor(&self) -> &Microprocessor;

    /// Maximum clock at `vdd`, zero outside the window.
    fn fmax(&self, vdd: Volts) -> Hertz;

    /// Leakage power at `vdd` (clamped to the window edge outside it).
    fn leak(&self, vdd: Volts) -> Watts;

    /// Power at maximum speed, `None` outside the window.
    fn pmax(&self, vdd: Volts) -> Option<Watts>;

    /// Energy per cycle at max speed, unbounded outside the window.
    fn ecycle(&self, vdd: Volts) -> Joules;

    /// Dynamic power at `(vdd, f)` — closed-form, identical on both paths.
    fn pdyn(&self, vdd: Volts, f: Hertz) -> Watts {
        self.processor().power_model().dynamic(vdd, f)
    }

    /// Total power at `(vdd, f)`: dynamic + leakage.
    fn ptotal(&self, vdd: Volts, f: Hertz) -> Watts {
        self.pdyn(vdd, f) + self.leak(vdd)
    }
}

impl CpuEval for Microprocessor {
    fn processor(&self) -> &Microprocessor {
        self
    }

    fn fmax(&self, vdd: Volts) -> Hertz {
        obs::CPU_MISSES.inc();
        self.max_frequency(vdd)
    }

    fn leak(&self, vdd: Volts) -> Watts {
        self.power_model().leakage(vdd)
    }

    fn pmax(&self, vdd: Volts) -> Option<Watts> {
        self.power_at_max_speed(vdd).ok()
    }

    fn ecycle(&self, vdd: Volts) -> Joules {
        self.energy_per_cycle(vdd)
    }
}

impl CpuEval for CpuLut {
    fn processor(&self) -> &Microprocessor {
        self.cpu()
    }

    fn fmax(&self, vdd: Volts) -> Hertz {
        obs::CPU_HITS.inc();
        self.max_frequency(vdd)
    }

    fn leak(&self, vdd: Volts) -> Watts {
        self.leakage(vdd)
    }

    fn pmax(&self, vdd: Volts) -> Option<Watts> {
        self.power_at_max_speed(vdd)
    }

    fn ecycle(&self, vdd: Volts) -> Joules {
        self.energy_per_cycle(vdd)
    }
}

/// Batch extension of [`PvSource`]: evaluate a whole slab of candidate
/// voltages per call.
///
/// The default method is a scalar-fallback loop over
/// [`PvSource::source_power`], so any source is batch-callable and every
/// implementation answers lane-for-lane identically to its own scalar
/// path. [`PvLut`] overrides it with the gather-free cursor kernel
/// ([`PvLut::power_at_many`]) — same bits, one knot-array walk instead of
/// a locate per point. Solvers that take `&impl PvSourceBatch` therefore
/// cost nothing extra on exact models and go batch-fast on tables.
pub trait PvSourceBatch: PvSource {
    /// Terminal power in watts for a slab of voltages in volts, one
    /// output lane per input lane.
    ///
    /// # Panics
    ///
    /// Panics when `volts.len() != watts_out.len()`.
    fn source_power_many(&self, volts: &[f64], watts_out: &mut [f64]) {
        assert_eq!(
            volts.len(),
            watts_out.len(),
            "source_power_many requires equally sized input and output slabs"
        );
        for (o, &v) in watts_out.iter_mut().zip(volts) {
            *o = self.source_power(Volts::new(v)).watts();
        }
    }
}

impl PvSourceBatch for SolarCell {}

impl PvSourceBatch for PvLut {
    fn source_power_many(&self, volts: &[f64], watts_out: &mut [f64]) {
        obs::PV_HITS.add(volts.len() as u64);
        self.power_at_many(volts, watts_out);
    }
}

/// Batch extension of [`CpuEval`]: evaluate slabs of candidate supply
/// voltages per call.
///
/// Same contract as [`PvSourceBatch`]: the defaults are scalar-fallback
/// loops (any [`CpuEval`] is batch-callable, lane-identical to its scalar
/// path), and [`CpuLut`] overrides them with the cursor kernels.
pub trait CpuEvalBatch: CpuEval {
    /// Maximum clock in hertz per lane, zero outside the window.
    ///
    /// # Panics
    ///
    /// Panics when `vdds.len() != hertz_out.len()`.
    fn fmax_many(&self, vdds: &[f64], hertz_out: &mut [f64]) {
        assert_eq!(
            vdds.len(),
            hertz_out.len(),
            "fmax_many requires equally sized input and output slabs"
        );
        for (o, &v) in hertz_out.iter_mut().zip(vdds) {
            *o = self.fmax(Volts::new(v)).hertz();
        }
    }

    /// Leakage power in watts per lane (window-edge clamped).
    ///
    /// # Panics
    ///
    /// Panics when `vdds.len() != watts_out.len()`.
    fn leak_many(&self, vdds: &[f64], watts_out: &mut [f64]) {
        assert_eq!(
            vdds.len(),
            watts_out.len(),
            "leak_many requires equally sized input and output slabs"
        );
        for (o, &v) in watts_out.iter_mut().zip(vdds) {
            *o = self.leak(Volts::new(v)).watts();
        }
    }

    /// Total power in watts for parallel `(vdd, f)` lanes: dynamic +
    /// leakage, no window check (mirrors [`CpuEval::ptotal`]).
    ///
    /// # Panics
    ///
    /// Panics when the three slabs differ in length.
    fn ptotal_many(&self, vdds: &[f64], freqs: &[f64], watts_out: &mut [f64]) {
        assert_eq!(
            vdds.len(),
            freqs.len(),
            "ptotal_many requires equally sized vdd and frequency slabs"
        );
        assert_eq!(
            vdds.len(),
            watts_out.len(),
            "ptotal_many requires equally sized input and output slabs"
        );
        for ((o, &v), &f) in watts_out.iter_mut().zip(vdds).zip(freqs) {
            *o = self.ptotal(Volts::new(v), Hertz::new(f)).watts();
        }
    }

    /// Energy per cycle in joules per lane (max-speed convention),
    /// infinite outside the window.
    ///
    /// # Panics
    ///
    /// Panics when `vdds.len() != joules_out.len()`.
    fn ecycle_many(&self, vdds: &[f64], joules_out: &mut [f64]) {
        assert_eq!(
            vdds.len(),
            joules_out.len(),
            "ecycle_many requires equally sized input and output slabs"
        );
        for (o, &v) in joules_out.iter_mut().zip(vdds) {
            *o = self.ecycle(Volts::new(v)).joules();
        }
    }
}

impl CpuEvalBatch for Microprocessor {}

impl CpuEvalBatch for CpuLut {
    fn fmax_many(&self, vdds: &[f64], hertz_out: &mut [f64]) {
        obs::CPU_HITS.add(vdds.len() as u64);
        self.max_frequency_many(vdds, hertz_out);
    }

    fn leak_many(&self, vdds: &[f64], watts_out: &mut [f64]) {
        self.leakage_many(vdds, watts_out);
    }

    fn ptotal_many(&self, vdds: &[f64], freqs: &[f64], watts_out: &mut [f64]) {
        assert_eq!(
            vdds.len(),
            watts_out.len(),
            "ptotal_many requires equally sized input and output slabs"
        );
        self.total_power_many(vdds, freqs, watts_out);
    }

    fn ecycle_many(&self, vdds: &[f64], joules_out: &mut [f64]) {
        self.energy_per_cycle_many(vdds, joules_out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hems_pv::Irradiance;

    #[test]
    fn exact_and_lut_pv_agree_through_the_trait() {
        let cell = SolarCell::kxob22(Irradiance::FULL_SUN);
        let lut = PvLut::build_default(cell.clone()).unwrap();
        let v = Volts::new(0.9);
        let exact = PvSource::source_power(&cell, v).watts();
        let fast = PvSource::source_power(&lut, v).watts();
        assert!((fast - exact).abs() <= 1e-3 * exact);
        assert_eq!(PvSource::source_voc(&lut), PvSource::source_voc(&cell));
    }

    /// Deterministic xorshift64* stream for seeded differential tests.
    fn seeded(seed: u64, n: usize, lo: f64, hi: f64) -> Vec<f64> {
        let mut state = seed.max(1);
        let mut vs: Vec<f64> = (0..n)
            .map(|_| {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                let u =
                    (state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11) as f64 / (1u64 << 53) as f64;
                lo + u * (hi - lo)
            })
            .collect();
        vs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        vs
    }

    #[test]
    fn batch_defaults_match_scalar_lane_for_lane() {
        // Exact models run the scalar-fallback defaults; the slab must
        // reproduce the per-point calls to the bit.
        let cell = SolarCell::kxob22(Irradiance::FULL_SUN);
        let vs = seeded(7, 65, 0.0, cell.open_circuit_voltage().volts());
        let mut out = vec![0.0; vs.len()];
        cell.source_power_many(&vs, &mut out);
        for (&v, &p) in vs.iter().zip(&out) {
            assert_eq!(
                p.to_bits(),
                cell.source_power(Volts::new(v)).watts().to_bits()
            );
        }

        let cpu = Microprocessor::paper_65nm();
        let vdds = seeded(11, 65, 0.4, 1.05);
        let freqs: Vec<f64> = vdds.iter().map(|v| v * 4e8).collect();
        let mut f_out = vec![0.0; vdds.len()];
        let mut l_out = vec![0.0; vdds.len()];
        let mut p_out = vec![0.0; vdds.len()];
        let mut e_out = vec![0.0; vdds.len()];
        cpu.fmax_many(&vdds, &mut f_out);
        cpu.leak_many(&vdds, &mut l_out);
        cpu.ptotal_many(&vdds, &freqs, &mut p_out);
        cpu.ecycle_many(&vdds, &mut e_out);
        for (k, &v) in vdds.iter().enumerate() {
            let vdd = Volts::new(v);
            assert_eq!(f_out[k].to_bits(), cpu.fmax(vdd).hertz().to_bits());
            assert_eq!(l_out[k].to_bits(), cpu.leak(vdd).watts().to_bits());
            assert_eq!(
                p_out[k].to_bits(),
                cpu.ptotal(vdd, Hertz::new(freqs[k])).watts().to_bits()
            );
            assert_eq!(e_out[k].to_bits(), cpu.ecycle(vdd).joules().to_bits());
        }
    }

    #[test]
    fn lut_batch_overrides_match_their_scalar_trait_path() {
        let cell = SolarCell::kxob22(Irradiance::FULL_SUN);
        let pv = PvLut::build_default(cell).unwrap();
        let vs = seeded(13, 129, -0.1, pv.open_circuit_voltage().volts() + 0.1);
        let mut out = vec![0.0; vs.len()];
        pv.source_power_many(&vs, &mut out);
        for (&v, &p) in vs.iter().zip(&out) {
            assert_eq!(
                p.to_bits(),
                pv.source_power(Volts::new(v)).watts().to_bits()
            );
        }

        let lut = CpuLut::build_default(Microprocessor::paper_65nm());
        let vdds = seeded(17, 129, 0.3, 1.2);
        let freqs: Vec<f64> = vdds.iter().map(|v| v * 4e8).collect();
        let mut f_out = vec![0.0; vdds.len()];
        let mut p_out = vec![0.0; vdds.len()];
        let mut e_out = vec![0.0; vdds.len()];
        lut.fmax_many(&vdds, &mut f_out);
        lut.ptotal_many(&vdds, &freqs, &mut p_out);
        lut.ecycle_many(&vdds, &mut e_out);
        for (k, &v) in vdds.iter().enumerate() {
            let vdd = Volts::new(v);
            assert_eq!(f_out[k].to_bits(), lut.fmax(vdd).hertz().to_bits());
            assert_eq!(
                p_out[k].to_bits(),
                lut.ptotal(vdd, Hertz::new(freqs[k])).watts().to_bits()
            );
            assert_eq!(e_out[k].to_bits(), lut.ecycle(vdd).joules().to_bits());
        }
    }

    #[test]
    fn exact_and_lut_cpu_agree_through_the_trait() {
        let cpu = Microprocessor::paper_65nm();
        let lut = CpuLut::build_default(cpu.clone());
        let v = Volts::new(0.6);
        let f = CpuEval::fmax(&cpu, v);
        assert!((CpuEval::fmax(&lut, v).hertz() - f.hertz()).abs() <= 1e-3 * f.hertz());
        let p = CpuEval::ptotal(&cpu, v, f * 0.5).watts();
        let pf = CpuEval::ptotal(&lut, v, f * 0.5).watts();
        assert!((pf - p).abs() <= 1e-3 * p);
        assert!(CpuEval::pmax(&cpu, Volts::new(0.2)).is_none());
        assert!(CpuEval::pmax(&lut, Volts::new(0.2)).is_none());
    }
}
