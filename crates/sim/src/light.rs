use hems_pv::Irradiance;
use hems_units::{Seconds, XorShiftRng};

/// A deterministic irradiance-vs-time profile driving the solar cell.
///
/// Profiles cover the paper's evaluation conditions: constant light levels
/// (Figs. 2–7), the sudden dimming step of Figs. 8 and 11b, plus richer
/// traces (a diurnal arc, seeded random clouds) for the examples and
/// robustness tests.
#[derive(Debug, Clone, PartialEq)]
pub enum LightProfile {
    /// Constant irradiance.
    Constant {
        /// The light level.
        level: Irradiance,
    },
    /// A step change at a given time — "light dimmed due to an obstacle".
    Step {
        /// Level before the step.
        before: Irradiance,
        /// Level after the step.
        after: Irradiance,
        /// When the step occurs.
        at: Seconds,
    },
    /// A half-sine diurnal arc: dark at `t=0` and `t=day_length`, peaking
    /// in the middle.
    Diurnal {
        /// Peak (solar-noon) irradiance.
        peak: Irradiance,
        /// Length of the daylight period.
        day_length: Seconds,
    },
    /// Seeded random cloud cover: a random walk between `floor` and `ceil`,
    /// resampled every `period` and linearly interpolated.
    Clouds {
        /// Minimum irradiance (heaviest cloud).
        floor: Irradiance,
        /// Maximum irradiance (clear patch).
        ceil: Irradiance,
        /// Resampling period of the walk.
        period: Seconds,
        /// RNG seed — same seed, same weather.
        seed: u64,
        /// Pre-sampled walk values (deterministic, derived from the seed).
        samples: Vec<f64>,
    },
    /// A base profile with scheduled total blackouts overlaid — the fault
    /// injection hook: inside any `[start, end)` window the irradiance is
    /// forced dark regardless of the base profile, so a chaos campaign can
    /// provoke a brownout at an exact, reproducible time.
    Outages {
        /// The profile in effect outside the outage windows.
        base: Box<LightProfile>,
        /// Half-open `[start, end)` blackout windows, sorted by start.
        windows: Vec<(Seconds, Seconds)>,
    },
}

impl LightProfile {
    /// Constant light.
    pub fn constant(level: Irradiance) -> LightProfile {
        LightProfile::Constant { level }
    }

    /// A dimming (or brightening) step at `at`.
    pub fn step(before: Irradiance, after: Irradiance, at: Seconds) -> LightProfile {
        LightProfile::Step { before, after, at }
    }

    /// A half-sine daylight arc peaking at `peak`.
    ///
    /// # Panics
    ///
    /// Panics if `day_length` is not positive.
    pub fn diurnal(peak: Irradiance, day_length: Seconds) -> LightProfile {
        assert!(day_length.is_positive(), "day length must be positive");
        LightProfile::Diurnal { peak, day_length }
    }

    /// Seeded random cloud cover over `horizon` (the walk repeats beyond
    /// it).
    ///
    /// # Panics
    ///
    /// Panics if the band is inverted or the period is not positive.
    pub fn clouds(
        floor: Irradiance,
        ceil: Irradiance,
        period: Seconds,
        horizon: Seconds,
        seed: u64,
    ) -> LightProfile {
        assert!(floor <= ceil, "cloud band is inverted");
        assert!(period.is_positive(), "cloud period must be positive");
        let n = (horizon.seconds() / period.seconds()).ceil() as usize + 2;
        let mut rng = XorShiftRng::seed_from_u64(seed);
        let mut samples = Vec::with_capacity(n);
        let mut level = (floor.fraction() + ceil.fraction()) * 0.5;
        let swing = (ceil.fraction() - floor.fraction()).max(1e-9);
        for _ in 0..n {
            level += rng.range_f64(-0.35, 0.35) * swing;
            level = level.clamp(floor.fraction(), ceil.fraction());
            samples.push(level);
        }
        LightProfile::Clouds {
            floor,
            ceil,
            period,
            seed,
            samples,
        }
    }

    /// Overlays scheduled blackout windows on `base`: inside any
    /// `[start, end)` window the light is [`Irradiance::DARK`], outside it
    /// the base profile applies unchanged. Overlapping or touching windows
    /// are allowed — they are merged, so the stored set is a sorted,
    /// disjoint union (which is what makes the cursor evaluation of
    /// [`at_with_cursor`](LightProfile::at_with_cursor) O(1) amortized).
    ///
    /// # Panics
    ///
    /// Panics if any window has `end <= start` or a negative start.
    pub fn with_outages(base: LightProfile, mut windows: Vec<(Seconds, Seconds)>) -> LightProfile {
        for (start, end) in &windows {
            assert!(*end > *start, "outage window is empty or inverted");
            assert!(*start >= Seconds::ZERO, "outage window starts before t=0");
        }
        windows.sort_by(|a, b| a.0.value().total_cmp(&b.0.value()));
        let mut merged: Vec<(Seconds, Seconds)> = Vec::with_capacity(windows.len());
        for (start, end) in windows {
            match merged.last_mut() {
                Some((_, last_end)) if start <= *last_end => {
                    *last_end = (*last_end).max(end);
                }
                _ => merged.push((start, end)),
            }
        }
        LightProfile::Outages {
            base: Box::new(base),
            windows: merged,
        }
    }

    /// The irradiance at time `t` (clamped to `t = 0` for negative times).
    pub fn at(&self, t: Seconds) -> Irradiance {
        let t = t.max(Seconds::ZERO);
        match self {
            LightProfile::Constant { level } => *level,
            LightProfile::Step { before, after, at } => {
                if t < *at {
                    *before
                } else {
                    *after
                }
            }
            LightProfile::Diurnal { peak, day_length } => {
                let phase = (t / *day_length).clamp(0.0, 1.0);
                let level = peak.fraction() * (std::f64::consts::PI * phase).sin().max(0.0);
                Irradiance::new(level).unwrap_or(*peak)
            }
            LightProfile::Clouds {
                period, samples, ..
            } => {
                let pos = t / *period;
                let i = (pos.floor() as usize) % samples.len();
                let j = (i + 1) % samples.len();
                let frac = pos - pos.floor();
                let level = samples[i] + (samples[j] - samples[i]) * frac;
                Irradiance::new(level.clamp(0.0, 2.0)).unwrap_or(Irradiance::DARK)
            }
            LightProfile::Outages { base, windows } => {
                if windows.iter().any(|(start, end)| t >= *start && t < *end) {
                    Irradiance::DARK
                } else {
                    base.at(t)
                }
            }
        }
    }

    /// [`at`](LightProfile::at), but with a caller-held scan cursor so a
    /// simulation stepping monotonically through an [`Outages`]
    /// (LightProfile::Outages) profile pays O(1) amortized per evaluation
    /// instead of scanning every window each step. The cursor skips
    /// windows whose end has passed; a backward time jump rewinds it, so
    /// the result equals `at(t)` for *any* call sequence. Non-outage
    /// profiles ignore the cursor and delegate to `at`.
    pub fn at_with_cursor(&self, t: Seconds, cursor: &mut usize) -> Irradiance {
        let LightProfile::Outages { base, windows } = self else {
            return self.at(t);
        };
        let t = t.max(Seconds::ZERO);
        *cursor = (*cursor).min(windows.len());
        // Windows are a sorted disjoint union (see `with_outages`), so
        // their ends are strictly increasing: once `t` is at or past a
        // window's end it is past every earlier window too — and if `t`
        // fell back *before* the previous window's end, earlier windows
        // may cover it again, so rewind.
        if *cursor > 0 {
            if let Some((_, prev_end)) = windows.get(*cursor - 1) {
                if t < *prev_end {
                    *cursor = 0;
                }
            }
        }
        while let Some((_, end)) = windows.get(*cursor) {
            if t >= *end {
                *cursor += 1;
            } else {
                break;
            }
        }
        match windows.get(*cursor) {
            Some((start, _)) if t >= *start => Irradiance::DARK,
            _ => base.at(t),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_constant() {
        let p = LightProfile::constant(Irradiance::HALF_SUN);
        assert_eq!(p.at(Seconds::ZERO), Irradiance::HALF_SUN);
        assert_eq!(p.at(Seconds::new(1e6)), Irradiance::HALF_SUN);
    }

    #[test]
    fn step_switches_exactly_at_t() {
        let p = LightProfile::step(
            Irradiance::FULL_SUN,
            Irradiance::QUARTER_SUN,
            Seconds::from_milli(10.0),
        );
        assert_eq!(p.at(Seconds::from_milli(9.999)), Irradiance::FULL_SUN);
        assert_eq!(p.at(Seconds::from_milli(10.0)), Irradiance::QUARTER_SUN);
        assert_eq!(p.at(Seconds::from_milli(50.0)), Irradiance::QUARTER_SUN);
    }

    #[test]
    fn diurnal_peaks_at_noon_and_is_dark_at_edges() {
        let p = LightProfile::diurnal(Irradiance::FULL_SUN, Seconds::new(100.0));
        assert!(p.at(Seconds::ZERO).fraction() < 1e-9);
        assert!((p.at(Seconds::new(50.0)).fraction() - 1.0).abs() < 1e-9);
        assert!(p.at(Seconds::new(100.0)).fraction() < 1e-9);
        // Morning and afternoon are symmetric.
        let am = p.at(Seconds::new(25.0));
        let pm = p.at(Seconds::new(75.0));
        assert!((am.fraction() - pm.fraction()).abs() < 1e-12);
    }

    #[test]
    fn clouds_are_deterministic_and_banded() {
        let mk = || {
            LightProfile::clouds(
                Irradiance::QUARTER_SUN,
                Irradiance::FULL_SUN,
                Seconds::new(1.0),
                Seconds::new(60.0),
                1234,
            )
        };
        let a = mk();
        let b = mk();
        for i in 0..600 {
            let t = Seconds::new(i as f64 * 0.1);
            assert_eq!(a.at(t), b.at(t));
            let g = a.at(t);
            assert!(g >= Irradiance::QUARTER_SUN && g <= Irradiance::FULL_SUN);
        }
        let c = LightProfile::clouds(
            Irradiance::QUARTER_SUN,
            Irradiance::FULL_SUN,
            Seconds::new(1.0),
            Seconds::new(60.0),
            99,
        );
        // Different seed, different weather (at least somewhere).
        let differs = (0..600).any(|i| {
            let t = Seconds::new(i as f64 * 0.1);
            a.at(t) != c.at(t)
        });
        assert!(differs);
    }

    #[test]
    fn negative_time_clamps_to_zero() {
        let p = LightProfile::step(
            Irradiance::FULL_SUN,
            Irradiance::DARK,
            Seconds::from_milli(1.0),
        );
        assert_eq!(p.at(Seconds::new(-5.0)), Irradiance::FULL_SUN);
    }

    #[test]
    fn outages_force_darkness_inside_their_windows_only() {
        let base = LightProfile::constant(Irradiance::FULL_SUN);
        let p = LightProfile::with_outages(
            base,
            vec![
                (Seconds::from_milli(30.0), Seconds::from_milli(40.0)),
                (Seconds::from_milli(10.0), Seconds::from_milli(20.0)),
            ],
        );
        assert_eq!(p.at(Seconds::from_milli(5.0)), Irradiance::FULL_SUN);
        assert_eq!(p.at(Seconds::from_milli(10.0)), Irradiance::DARK);
        assert_eq!(p.at(Seconds::from_milli(19.999)), Irradiance::DARK);
        assert_eq!(p.at(Seconds::from_milli(20.0)), Irradiance::FULL_SUN);
        assert_eq!(p.at(Seconds::from_milli(35.0)), Irradiance::DARK);
        assert_eq!(p.at(Seconds::from_milli(40.0)), Irradiance::FULL_SUN);
    }

    #[test]
    fn outages_compose_with_a_dynamic_base_profile() {
        let base = LightProfile::diurnal(Irradiance::FULL_SUN, Seconds::new(1.0));
        let faulted =
            LightProfile::with_outages(base.clone(), vec![(Seconds::new(0.4), Seconds::new(0.5))]);
        // Outside the window the arc is untouched.
        assert_eq!(faulted.at(Seconds::new(0.2)), base.at(Seconds::new(0.2)));
        assert_eq!(faulted.at(Seconds::new(0.8)), base.at(Seconds::new(0.8)));
        // Inside it the light is dark no matter what the base says.
        assert_eq!(faulted.at(Seconds::new(0.45)), Irradiance::DARK);
    }

    #[test]
    fn overlapping_windows_merge_into_a_disjoint_union() {
        let p = LightProfile::with_outages(
            LightProfile::constant(Irradiance::FULL_SUN),
            vec![
                (Seconds::new(5.0), Seconds::new(9.0)),
                (Seconds::new(1.0), Seconds::new(3.0)),
                (Seconds::new(2.0), Seconds::new(6.0)),
                (Seconds::new(9.0), Seconds::new(10.0)), // touching: merges
            ],
        );
        let LightProfile::Outages { windows, .. } = &p else {
            panic!("with_outages must build Outages");
        };
        assert_eq!(
            windows.as_slice(),
            &[(Seconds::new(1.0), Seconds::new(10.0))]
        );
        assert_eq!(p.at(Seconds::new(4.0)), Irradiance::DARK);
        assert_eq!(p.at(Seconds::new(10.0)), Irradiance::FULL_SUN);
    }

    #[test]
    fn cursor_evaluation_matches_at_for_any_call_sequence() {
        let base = LightProfile::diurnal(Irradiance::FULL_SUN, Seconds::new(100.0));
        let p = LightProfile::with_outages(
            base,
            vec![
                (Seconds::new(10.0), Seconds::new(12.0)),
                (Seconds::new(30.0), Seconds::new(35.0)),
                (Seconds::new(60.0), Seconds::new(61.0)),
            ],
        );
        // Monotone sweep.
        let mut cursor = 0usize;
        for i in 0..2000 {
            let t = Seconds::new(i as f64 * 0.05);
            assert_eq!(p.at_with_cursor(t, &mut cursor), p.at(t), "t = {t:?}");
        }
        // Backward jumps rewind the cursor instead of lying.
        for &s in &[70.0, 11.0, 34.0, 5.0, 60.5, 0.0, 99.0] {
            let t = Seconds::new(s);
            assert_eq!(p.at_with_cursor(t, &mut cursor), p.at(t), "t = {t:?}");
        }
        // A stale out-of-range cursor clamps safely.
        let mut wild = 999usize;
        assert_eq!(
            p.at_with_cursor(Seconds::new(31.0), &mut wild),
            Irradiance::DARK
        );
        // Non-outage profiles leave the cursor alone.
        let plain = LightProfile::constant(Irradiance::HALF_SUN);
        let mut untouched = 7usize;
        assert_eq!(
            plain.at_with_cursor(Seconds::new(1.0), &mut untouched),
            Irradiance::HALF_SUN
        );
        assert_eq!(untouched, 7);
    }

    #[test]
    #[should_panic(expected = "empty or inverted")]
    fn outage_windows_validate_their_bounds() {
        let _ = LightProfile::with_outages(
            LightProfile::constant(Irradiance::FULL_SUN),
            vec![(Seconds::new(1.0), Seconds::new(1.0))],
        );
    }
}
