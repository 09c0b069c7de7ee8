//! Report helpers shared by the benches and the service binaries: an
//! exact percentile over sorted samples, the process's peak RSS, and an
//! adaptive nanosecond formatter.

/// Interpolated percentile of an ascending-sorted slice.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of nothing");
    let rank = (p / 100.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        // hems-lint: allow(index, reason = "for p in [0, 100] rank lies in [0, len - 1], so lo and hi index the non-empty slice")
        sorted[lo]
    } else {
        let w = rank - lo as f64;
        // hems-lint: allow(index, reason = "for p in [0, 100] rank lies in [0, len - 1], so lo and hi index the non-empty slice")
        sorted[lo] * (1.0 - w) + sorted[hi] * w
    }
}

/// Peak resident set size of this process in bytes, read from the
/// kernel's `VmHWM` high-water mark in `/proc/self/status` — `std`-only,
/// no syscall bindings. Returns `None` off Linux or if the field is
/// missing, so callers degrade to omitting the figure rather than
/// failing the bench.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kib: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kib * 1024);
        }
    }
    None
}

/// Formats a nanosecond count with an adaptive unit.
pub fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert!((percentile(&xs, 50.0) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn peak_rss_is_plausible_on_linux() {
        // The kernel reports KiB; anything under a page or over a
        // terabyte would mean the parse walked off the field.
        if let Some(rss) = peak_rss_bytes() {
            assert!(rss >= 4096, "rss = {rss}");
            assert!(rss < 1 << 40, "rss = {rss}");
            assert_eq!(rss % 1024, 0, "VmHWM is KiB-granular");
        }
    }

    #[test]
    fn fmt_ns_picks_units() {
        assert_eq!(fmt_ns(12.0), "12.0 ns");
        assert_eq!(fmt_ns(12_340.0), "12.34 µs");
        assert_eq!(fmt_ns(12_340_000.0), "12.34 ms");
    }
}
