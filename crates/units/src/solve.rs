//! Bracketed 1-D root finding and minimization.
//!
//! These are the workhorse solvers behind the photovoltaic implicit diode
//! equation, the holistic optimal-voltage search (paper eqs. 1–4), the
//! minimum-energy-point search (eq. 5), and the deadline-feasibility
//! intersection (Fig. 9a). All solvers are deterministic and allocation-free.

use crate::SolveError;

/// Default x-tolerance used by the convenience wrappers.
pub const DEFAULT_TOL: f64 = 1e-9;

/// Maximum iterations for the iterative solvers.
const MAX_ITER: usize = 200;

/// Golden-ratio constant used by [`golden_min`].
const INV_PHI: f64 = 0.618_033_988_749_894_9;

/// Finds a root of `f` on `[lo, hi]` by bisection.
///
/// # Errors
///
/// - [`SolveError::BadBracket`] when the bracket is degenerate or non-finite.
/// - [`SolveError::NoSignChange`] when `f(lo)` and `f(hi)` share a sign.
/// - [`SolveError::NonFiniteObjective`] when `f` returns NaN/inf.
///
/// ```
/// use hems_units::solve::bisect;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let root = bisect(|x| x * x - 2.0, 0.0, 2.0, 1e-12)?;
/// assert!((root - 2f64.sqrt()).abs() < 1e-10);
/// # Ok(())
/// # }
/// ```
pub fn bisect(
    mut f: impl FnMut(f64) -> f64,
    mut lo: f64,
    mut hi: f64,
    tol: f64,
) -> Result<f64, SolveError> {
    if !(lo < hi) || !lo.is_finite() || !hi.is_finite() {
        return Err(SolveError::BadBracket { lo, hi });
    }
    let mut f_lo = f(lo);
    let f_hi = f(hi);
    if !f_lo.is_finite() {
        return Err(SolveError::NonFiniteObjective { at: lo });
    }
    if !f_hi.is_finite() {
        return Err(SolveError::NonFiniteObjective { at: hi });
    }
    if f_lo == 0.0 {
        return Ok(lo);
    }
    if f_hi == 0.0 {
        return Ok(hi);
    }
    if f_lo.signum() == f_hi.signum() {
        return Err(SolveError::NoSignChange { f_lo, f_hi });
    }
    for _ in 0..MAX_ITER {
        let mid = 0.5 * (lo + hi);
        let f_mid = f(mid);
        if !f_mid.is_finite() {
            return Err(SolveError::NonFiniteObjective { at: mid });
        }
        if f_mid == 0.0 || (hi - lo) < tol {
            return Ok(mid);
        }
        if f_mid.signum() == f_lo.signum() {
            lo = mid;
            f_lo = f_mid;
        } else {
            hi = mid;
        }
    }
    Err(SolveError::NoConvergence {
        iterations: MAX_ITER,
        best: 0.5 * (lo + hi),
    })
}

/// Minimizes a unimodal `f` on `[lo, hi]` by golden-section search.
///
/// Returns the argmin. For a non-unimodal objective use [`minimize`], which
/// grid-scans first.
///
/// # Errors
///
/// - [`SolveError::BadBracket`] for a degenerate or non-finite bracket.
/// - [`SolveError::NonFiniteObjective`] when `f` misbehaves.
pub fn golden_min(
    mut f: impl FnMut(f64) -> f64,
    mut lo: f64,
    mut hi: f64,
    tol: f64,
) -> Result<f64, SolveError> {
    if !(lo < hi) || !lo.is_finite() || !hi.is_finite() {
        return Err(SolveError::BadBracket { lo, hi });
    }
    let mut a = hi - INV_PHI * (hi - lo);
    let mut b = lo + INV_PHI * (hi - lo);
    let mut fa = f(a);
    let mut fb = f(b);
    for _ in 0..MAX_ITER {
        if !fa.is_finite() {
            return Err(SolveError::NonFiniteObjective { at: a });
        }
        if !fb.is_finite() {
            return Err(SolveError::NonFiniteObjective { at: b });
        }
        if (hi - lo) < tol {
            break;
        }
        if fa < fb {
            hi = b;
            b = a;
            fb = fa;
            a = hi - INV_PHI * (hi - lo);
            fa = f(a);
        } else {
            lo = a;
            a = b;
            fa = fb;
            b = lo + INV_PHI * (hi - lo);
            fb = f(b);
        }
    }
    Ok(0.5 * (lo + hi))
}

/// Minimizes `f` on `[lo, hi]` by an `n`-point grid scan followed by
/// golden-section refinement around the best grid cell.
///
/// Robust to objectives with several local minima as long as the grid is fine
/// enough to land in the global basin. Returns `(argmin, min)`.
///
/// # Errors
///
/// - [`SolveError::BadBracket`] for a degenerate bracket or `n < 2`.
/// - [`SolveError::NonFiniteObjective`] when `f` returns NaN at every grid
///   point; isolated non-finite grid points are skipped so that objectives
///   with restricted domains (e.g. frequency undefined below threshold
///   voltage) can still be minimized.
pub fn minimize(
    mut f: impl FnMut(f64) -> f64,
    lo: f64,
    hi: f64,
    n: usize,
) -> Result<(f64, f64), SolveError> {
    if !(lo < hi) || !lo.is_finite() || !hi.is_finite() || n < 2 {
        return Err(SolveError::BadBracket { lo, hi });
    }
    let step = (hi - lo) / (n - 1) as f64;
    let mut best_i: Option<usize> = None;
    let mut best_y = f64::INFINITY;
    for i in 0..n {
        let x = lo + step * i as f64;
        let y = f(x);
        if y.is_finite() && y < best_y {
            best_y = y;
            best_i = Some(i);
        }
    }
    let Some(best_i) = best_i else {
        return Err(SolveError::NonFiniteObjective { at: lo });
    };
    let left = lo + step * best_i.saturating_sub(1) as f64;
    let right = (lo + step * (best_i + 1) as f64).min(hi);
    // Guard against non-finite objective values within the refinement
    // bracket by falling back to the grid optimum.
    let x = match golden_min(&mut f, left, right, DEFAULT_TOL) {
        Ok(x) => x,
        Err(_) => lo + step * best_i as f64,
    };
    let y = f(x);
    if y.is_finite() && y <= best_y {
        Ok((x, y))
    } else {
        Ok((lo + step * best_i as f64, best_y))
    }
}

/// Maximizes `f` on `[lo, hi]`; see [`minimize`] for the method and errors.
///
/// Returns `(argmax, max)`.
///
/// # Errors
///
/// Propagates the same errors as [`minimize`].
pub fn maximize(
    mut f: impl FnMut(f64) -> f64,
    lo: f64,
    hi: f64,
    n: usize,
) -> Result<(f64, f64), SolveError> {
    let (x, neg_y) = minimize(|x| -f(x), lo, hi, n)?;
    Ok((x, -neg_y))
}

#[cfg(test)]
mod tests {
    use super::*;
    #[cfg(feature = "proptest")]
    use proptest::prelude::*;

    #[test]
    fn bisect_finds_sqrt2() {
        let r = bisect(|x| x * x - 2.0, 0.0, 2.0, 1e-12).unwrap();
        assert!((r - std::f64::consts::SQRT_2).abs() < 1e-9);
    }

    #[test]
    fn bisect_accepts_root_at_bracket_end() {
        assert_eq!(bisect(|x| x, 0.0, 1.0, 1e-12).unwrap(), 0.0);
        assert_eq!(bisect(|x| x - 1.0, 0.0, 1.0, 1e-12).unwrap(), 1.0);
    }

    #[test]
    fn bisect_rejects_bad_input() {
        assert!(matches!(
            bisect(|x| x, 1.0, 0.0, 1e-9),
            Err(SolveError::BadBracket { .. })
        ));
        assert!(matches!(
            bisect(|x| x + 10.0, 0.0, 1.0, 1e-9),
            Err(SolveError::NoSignChange { .. })
        ));
        assert!(matches!(
            bisect(|x| if x == 0.0 { f64::NAN } else { x }, 0.0, 1.0, 1e-9),
            Err(SolveError::NonFiniteObjective { .. })
        ));
    }

    #[test]
    fn golden_min_finds_parabola_vertex() {
        let x = golden_min(|x| (x - 0.3).powi(2), -1.0, 1.0, 1e-10).unwrap();
        assert!((x - 0.3).abs() < 1e-6);
    }

    #[test]
    fn golden_min_rejects_bad_bracket() {
        assert!(golden_min(|x| x, 1.0, 1.0, 1e-9).is_err());
        assert!(golden_min(|x| x, f64::NAN, 1.0, 1e-9).is_err());
    }

    #[test]
    fn minimize_escapes_local_minimum() {
        // Two basins: local min near x=1 (depth 1), global near x=4 (depth 3).
        let f = |x: f64| -((-(x - 1.0).powi(2)).exp() + 3.0 * (-(x - 4.0).powi(2)).exp());
        let (x, _) = minimize(f, -1.0, 6.0, 101).unwrap();
        assert!((x - 4.0).abs() < 1e-3, "got {x}");
    }

    #[test]
    fn minimize_tolerates_restricted_domain() {
        // NaN below 0.4 — like frequency below threshold voltage.
        let f = |x: f64| if x < 0.4 { f64::NAN } else { (x - 0.6).powi(2) };
        let (x, y) = minimize(f, 0.0, 1.0, 51).unwrap();
        assert!((x - 0.6).abs() < 1e-3);
        assert!(y < 1e-6);
    }

    #[test]
    fn minimize_all_nan_errors() {
        assert!(matches!(
            minimize(|_| f64::NAN, 0.0, 1.0, 11),
            Err(SolveError::NonFiniteObjective { .. })
        ));
    }

    #[test]
    fn maximize_finds_peak() {
        let (x, y) = maximize(|x| 5.0 - (x - 2.0).powi(2), 0.0, 4.0, 41).unwrap();
        assert!((x - 2.0).abs() < 1e-5);
        assert!((y - 5.0).abs() < 1e-9);
    }

    // Gated: requires the `proptest` feature plus re-adding the
    // proptest dev-dependency (removed for offline resolution).
    #[cfg(feature = "proptest")]
    proptest! {
        #[test]
        fn bisect_root_is_accurate_for_linear(a in 0.5f64..10.0, b in -5.0f64..5.0) {
            // f(x) = a*x + b has root -b/a; bracket it generously.
            let root = -b / a;
            let r = bisect(|x| a * x + b, root - 7.0, root + 11.0, 1e-12).unwrap();
            prop_assert!((r - root).abs() < 1e-8);
        }

        #[test]
        fn golden_min_matches_vertex(c in -3.0f64..3.0) {
            let x = golden_min(|x| (x - c).powi(2) + 1.0, -5.0, 5.0, 1e-10).unwrap();
            prop_assert!((x - c).abs() < 1e-5);
        }

        #[test]
        fn maximize_ge_endpoint_values(seed in 0.0f64..1.0) {
            let f = |x: f64| (x * 7.0 + seed).sin() + 0.3 * x;
            let (_, y) = maximize(f, 0.0, 3.0, 301).unwrap();
            prop_assert!(y + 1e-9 >= f(0.0));
            prop_assert!(y + 1e-9 >= f(3.0));
        }
    }
}
