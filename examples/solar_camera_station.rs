//! A battery-less camera station: the motivating IoT scenario.
//!
//! A solar-powered node captures 64×64 frames and runs the paper's
//! pattern-recognition pipeline on each, all day, with no battery. We
//! simulate a compressed "day" (a 20 s diurnal light arc) and compare how
//! many frames three designs get through:
//!
//! * a conventional design pinned at the datasheet operating point;
//! * a conventional design pinned at the *conventional* MEP;
//! * the paper's holistic controller.
//!
//! ```text
//! cargo run --release --example solar_camera_station
//! ```

use hems_core::{HolisticController, Mode};
use hems_imgproc::{Frame, RecognitionPipeline, Shape};
use hems_pv::Irradiance;
use hems_sim::{
    Controller, DutyCycleController, FixedVoltageController, Job, LightProfile, Simulation,
    SystemConfig,
};
use hems_units::{Seconds, Volts};

const DAY: f64 = 20.0; // seconds of simulated (compressed) daylight

fn run_station(
    name: &str,
    controller: &mut dyn Controller,
    pipeline: &RecognitionPipeline,
) -> Result<usize, Box<dyn std::error::Error>> {
    let config = SystemConfig::paper_sc_system()?;
    let light = LightProfile::diurnal(Irradiance::FULL_SUN, Seconds::new(DAY));
    let mut sim = Simulation::new(config, light, Volts::new(0.8))?;

    // Queue a day's worth of capture jobs: each frame costs what the real
    // pipeline would cost on its pixels.
    let mut expected_labels = Vec::new();
    for i in 0..3000 {
        let shape = Shape::ALL[i % Shape::ALL.len()];
        let frame = Frame::synthetic_shape(64, 64, shape, i as u64)?;
        expected_labels.push(shape.label());
        sim.enqueue(Job::new(pipeline.frame_cost(&frame)));
    }

    let summary = sim.run(controller, Seconds::new(DAY));
    // Verify the recognition actually works on the frames that completed.
    let mut correct = 0;
    #[allow(clippy::needless_range_loop)] // index drives both the shape cycle and the label table
    for i in 0..summary.completed_jobs {
        let shape = Shape::ALL[i % Shape::ALL.len()];
        let frame = Frame::synthetic_shape(64, 64, shape, i as u64)?;
        if pipeline.process(&frame).label == expected_labels[i] {
            correct += 1;
        }
    }
    println!(
        "{name:>28}: {:4} frames ({correct} recognized correctly), \
         {:6.2} mJ harvested, {:2} brownouts, duty {:4.1}%",
        summary.completed_jobs,
        summary.ledger.harvested.to_milli(),
        summary.brownouts,
        summary.ledger.duty_cycle() * 100.0
    );
    Ok(summary.completed_jobs)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let pipeline = RecognitionPipeline::paper_default()?;
    println!(
        "== battery-less camera station: one compressed {DAY} s 'day', \
         64x64 frames through the recognition pipeline =="
    );

    let mut fixed_fast = FixedVoltageController::new(Volts::new(0.7));
    let fast = run_station("fixed 0.70 V (datasheet)", &mut fixed_fast, &pipeline)?;

    let mut fixed_mep = FixedVoltageController::new(Volts::new(0.46));
    let mep = run_station("fixed 0.46 V (conv. MEP)", &mut fixed_mep, &pipeline)?;

    let mut duty = DutyCycleController::paper_default();
    let cycled = run_station("duty cycle 1.1/0.7 V", &mut duty, &pipeline)?;

    let mut holistic = HolisticController::paper_default(Mode::MaxPerformance);
    let smart = run_station("holistic (paper)", &mut holistic, &pipeline)?;

    let gain = |baseline: usize| (smart as f64 / baseline.max(1) as f64 - 1.0) * 100.0;
    println!(
        "\nholistic throughput vs best conventional design: {:+.0}%",
        gain(fast.max(mep).max(cycled))
    );
    println!(
        "holistic throughput vs best fixed operating point: {:+.0}%",
        gain(fast.max(mep))
    );
    Ok(())
}
