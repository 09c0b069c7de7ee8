use hems_units::{Hertz, Seconds, Volts, Watts};

/// One decimated waveform sample — a row of the measured waveforms in the
/// paper's Figs. 8c and 11b (solar node voltage, processor supply, clock,
/// powers).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Simulation time.
    pub t: Seconds,
    /// Solar/storage node voltage.
    pub v_solar: Volts,
    /// Processor supply voltage (zero when asleep/browned out).
    pub vdd: Volts,
    /// Processor clock (zero when not executing).
    pub frequency: Hertz,
    /// Power harvested from the cell this step.
    pub p_harvest: Watts,
    /// Power drawn from the solar node this step.
    pub p_drawn: Watts,
    /// Power delivered into the processor this step.
    pub p_cpu: Watts,
    /// `true` while the bypass path is engaged.
    pub bypassed: bool,
}

/// Records every `decimation`-th sample of a simulation.
///
/// At the simulator's default 50 µs step a one-minute run is 1.2 M steps;
/// decimation keeps traces plottable without touching the integration.
#[derive(Debug, Clone, PartialEq)]
pub struct WaveformRecorder {
    decimation: usize,
    counter: usize,
    samples: Vec<Sample>,
}

impl WaveformRecorder {
    /// Records every `decimation`-th sample (`decimation >= 1`).
    ///
    /// # Panics
    ///
    /// Panics if `decimation` is zero.
    pub fn new(decimation: usize) -> WaveformRecorder {
        assert!(decimation >= 1, "decimation must be at least 1");
        WaveformRecorder {
            decimation,
            counter: 0,
            samples: Vec::new(),
        }
    }

    /// Records every sample.
    pub fn full() -> WaveformRecorder {
        WaveformRecorder::new(1)
    }

    /// Offers a sample; it is stored on every `decimation`-th call.
    pub fn offer(&mut self, sample: Sample) {
        if self.counter.is_multiple_of(self.decimation) {
            self.samples.push(sample);
        }
        self.counter += 1;
    }

    /// The recorded samples in time order.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when nothing was recorded yet.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Writes the trace as CSV (header + one row per sample) for plotting
    /// with external tools. Note that a mutable reference to a writer can
    /// be passed for `w`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_csv<W: std::io::Write>(&self, mut w: W) -> std::io::Result<()> {
        writeln!(
            w,
            "t_s,v_solar_v,vdd_v,frequency_hz,p_harvest_w,p_drawn_w,p_cpu_w,bypassed"
        )?;
        for s in &self.samples {
            writeln!(
                w,
                "{:.9},{:.6},{:.6},{:.3},{:.9},{:.9},{:.9},{}",
                s.t.seconds(),
                s.v_solar.volts(),
                s.vdd.volts(),
                s.frequency.hertz(),
                s.p_harvest.watts(),
                s.p_drawn.watts(),
                s.p_cpu.watts(),
                s.bypassed as u8
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(t_ms: f64, v: f64) -> Sample {
        Sample {
            t: Seconds::from_milli(t_ms),
            v_solar: Volts::new(v),
            vdd: Volts::new(0.55),
            frequency: Hertz::from_mega(100.0),
            p_harvest: Watts::from_milli(10.0),
            p_drawn: Watts::from_milli(9.0),
            p_cpu: Watts::from_milli(6.0),
            bypassed: false,
        }
    }

    #[test]
    fn decimation_keeps_every_nth() {
        let mut r = WaveformRecorder::new(3);
        for i in 0..10 {
            r.offer(sample(i as f64, 1.0));
        }
        assert_eq!(r.len(), 4); // samples 0, 3, 6, 9
        assert!((r.samples()[1].t.to_milli() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn full_records_everything() {
        let mut r = WaveformRecorder::full();
        for i in 0..5 {
            r.offer(sample(i as f64, 1.0));
        }
        assert_eq!(r.len(), 5);
        assert!(!r.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_decimation_rejected() {
        let _ = WaveformRecorder::new(0);
    }

    #[test]
    fn csv_round_trips_structurally() {
        let mut r = WaveformRecorder::full();
        for i in 0..3 {
            r.offer(sample(i as f64, 1.0 + 0.1 * i as f64));
        }
        let mut buf = Vec::new();
        r.write_csv(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4); // header + 3 rows
        assert!(lines[0].starts_with("t_s,v_solar_v"));
        // Every data row has the header's arity.
        let cols = lines[0].split(',').count();
        for row in &lines[1..] {
            assert_eq!(row.split(',').count(), cols);
        }
        assert!(lines[1].ends_with(",0")); // not bypassed
    }
}
