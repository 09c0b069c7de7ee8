//! Integration tests asserting the paper's headline numbers end-to-end,
//! through the `hems_repro` facade (which also exercises the re-exports).
//!
//! Every band comes from the claim table in `hems_repro::paper`, the same
//! rows `hems paper` writes to `BENCH_paper.json`; no band or claim id is
//! restated here.

use hems_repro::core::{analysis, mep, BypassPolicy};
use hems_repro::cpu::Microprocessor;
use hems_repro::paper::{Claim, CLAIMS};
use hems_repro::pv::{Irradiance, SolarCell};
use hems_repro::regulator::{RegulatorKind, ScRegulator};
use hems_repro::units::Volts;

/// Measures each claim and asserts its unrounded value lies in its band.
fn assert_in_band(claims: impl IntoIterator<Item = &'static Claim>) {
    for claim in claims {
        let row = claim.measure().expect("claim measures");
        assert!(
            row.in_band(),
            "{}: measured {} {} outside [{}, {}) (paper {})",
            claim.id,
            row.measured,
            claim.unit,
            claim.band.0,
            claim.band.1,
            claim.paper
        );
    }
}

/// The claims the paper states in `figure`.
fn claims_of(figure: &'static str) -> impl Iterator<Item = &'static Claim> {
    let claims: Vec<_> = CLAIMS.iter().filter(|c| c.figure == figure).collect();
    assert!(!claims.is_empty(), "no claim for {figure}");
    claims.into_iter()
}

#[test]
fn every_claim_lands_in_its_band() {
    assert_in_band(&CLAIMS);
}

// The per-figure tests below name the paper's statements; each checks the
// same rows as `every_claim_lands_in_its_band`, filtered by figure.

#[test]
fn headline_sc_gains_match_fig6() {
    // Paper Fig. 6b: "31% more power ... 18% speedup" with the SC regulator
    // under outdoor strong light.
    assert_in_band(claims_of("Fig. 6b"));
}

#[test]
fn headline_mep_savings_match_fig7b() {
    // Paper Section V: MEP shifts up by "up to 0.1V" for "up to 31% energy
    // reduction compared with using conventional MEP".
    assert_in_band(claims_of("Fig. 7b"));
}

#[test]
fn ldo_never_beats_the_raw_cell() {
    // Paper Section IV-A: the LDO's linear efficiency cancels the MPP gain.
    let cell = SolarCell::kxob22(Irradiance::FULL_SUN);
    let cpu = Microprocessor::paper_65nm();
    let a = analysis::fig6(&cell, &cpu).expect("feasible");
    let ldo = a
        .plan(hems_repro::regulator::RegulatorKind::Ldo)
        .expect("LDO plan");
    assert!(ldo.power_gain_vs(&a.unregulated) < 1.0);
}

#[test]
fn bypass_crossover_sits_near_quarter_sun() {
    // Paper Fig. 7a: regulation wins at 100%/50% light, bypass below ~25%.
    // The crossover's band is checked with every other claim's.
    let policy = BypassPolicy::for_topology(RegulatorKind::SwitchedCapacitor)
        .as_ref()
        .expect("crossover exists");
    assert!(policy.should_bypass(Irradiance::QUARTER_SUN));
    assert!(!policy.should_bypass(Irradiance::FULL_SUN));
}

#[test]
fn a_frame_takes_about_15ms_at_half_volt() {
    // Paper Section VII: "For a low resolution image with 64×64 pixels, it
    // takes about 15ms to process at 0.5V." — checked through the *real*
    // pipeline's cycle count and the CPU model together.
    assert_in_band(claims_of("Sec. VII"));
}

#[test]
fn sprinting_gains_solar_energy_at_20_percent() {
    // Paper Fig. 9b: "10% more energy was absorbed from solar cell by
    // sprinting operation at 20% rate".
    assert_in_band(claims_of("Fig. 9b"));
}

#[test]
fn holistic_mep_is_cheaper_than_conventional_through_every_regulator() {
    let cpu = Microprocessor::paper_65nm();
    let v_in = Volts::new(1.1);
    for (kind, cmp) in analysis::fig7b(&cpu, v_in) {
        assert!(
            cmp.energy_savings() >= -1e-9,
            "{kind}: negative savings {:.2}%",
            cmp.energy_savings() * 100.0
        );
    }
    // And the system energy really is what the components say it is.
    let sc = ScRegulator::paper_65nm();
    let at = mep::system_energy_per_cycle(&cpu, &sc, v_in, Volts::new(0.55)).unwrap();
    let breakdown = cpu.energy_breakdown(Volts::new(0.55)).unwrap();
    assert!(at > breakdown.total());
}
