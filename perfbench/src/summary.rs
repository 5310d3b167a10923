//! The one summary helper every timing and ratio goes through.
//!
//! A percentile is only reported when the sample can support it: at
//! least [`MIN_TAIL`] samples must lie strictly beyond the
//! percentile's nearest rank. A "p99" over four queries is refused, not
//! printed. Ratios carry their base counts so a reader can tell 1/2
//! from 500/1000.

use std::fmt;

/// Samples that must lie beyond a reported percentile.
pub const MIN_TAIL: usize = 10;

/// Percentiles the helper considers, highest first.
const CANDIDATE_PERCENTILES: [u32; 5] = [99, 95, 90, 75, 50];

/// Nearest rank (1-based) of percentile `p` in `n` samples.
fn nearest_rank(n: usize, p: u32) -> usize {
    ((p as usize * n).div_ceil(100)).max(1)
}

/// Samples strictly beyond percentile `p`'s nearest rank.
pub fn tail_beyond(n: usize, p: u32) -> usize {
    n.saturating_sub(nearest_rank(n, p))
}

/// Percentile `p` (nearest rank) of `values`, refused unless at least
/// [`MIN_TAIL`] samples lie beyond it.
pub fn percentile(values: &[f64], p: u32) -> Result<f64, String> {
    assert!((1..100).contains(&p), "percentile must be in 1..100");
    let n = values.len();
    if tail_beyond(n, p) < MIN_TAIL {
        return Err(format!(
            "p{p} needs at least {MIN_TAIL} samples beyond it; n = {n} leaves {}",
            tail_beyond(n, p)
        ));
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[nearest_rank(n, p) - 1])
}

/// Median of `values` (mean of the middle pair for even `n`).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// The highest of p99/p95/p90/p75/p50 the sample count supports.
pub fn highest_supported(n: usize) -> Option<u32> {
    CANDIDATE_PERCENTILES
        .into_iter()
        .find(|&p| tail_beyond(n, p) >= MIN_TAIL)
}

/// A timing distribution reduced to what the sample supports.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median, if any sample exists.
    pub median: Option<f64>,
    /// The highest supported percentile and its value.
    pub tail: Option<(u32, f64)>,
}

impl Summary {
    /// Summarizes `values`.
    pub fn of(values: &[f64]) -> Summary {
        let tail = highest_supported(values.len()).map(|p| {
            let v = percentile(values, p).expect("supported by construction");
            (p, v)
        });
        Summary {
            n: values.len(),
            median: median(values),
            tail,
        }
    }

    /// One printable line: `name: median X unit, pNN Y unit (n = N)`.
    pub fn line(&self, name: &str, unit: &str) -> String {
        let med = self
            .median
            .map_or("none".to_string(), |m| format!("{m:.4} {unit}"));
        let tail = self.tail.map_or(
            format!("no percentile supported (need > {MIN_TAIL} samples)"),
            |(p, v)| format!("p{p} {v:.4} {unit}"),
        );
        format!("{name}: median {med}, {tail} (n = {})", self.n)
    }
}

/// A ratio that keeps its base counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ratio {
    /// Numerator count.
    pub num: f64,
    /// Denominator count.
    pub den: f64,
}

impl Ratio {
    /// `num / den`.
    pub fn new(num: f64, den: f64) -> Ratio {
        Ratio { num, den }
    }

    /// The ratio's value; 0 when the base is empty.
    pub fn value(&self) -> f64 {
        if self.den == 0.0 {
            0.0
        } else {
            self.num / self.den
        }
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 0.0 {
            write!(f, "n/a ({}/{})", self.num, self.den)
        } else {
            write!(f, "{:.4} ({}/{})", self.value(), self.num, self.den)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn refuses_p99_over_four_samples() {
        let err = percentile(&ramp(4), 99).unwrap_err();
        assert!(err.contains("n = 4"), "{err}");
        assert_eq!(highest_supported(4), None);
    }

    #[test]
    fn p90_needs_a_hundred_samples() {
        assert!(percentile(&ramp(99), 90).is_err());
        assert_eq!(percentile(&ramp(100), 90), Ok(90.0));
        assert_eq!(tail_beyond(100, 90), 10);
    }

    #[test]
    fn highest_supported_grows_with_n() {
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(50));
        assert_eq!(highest_supported(40), Some(75));
        assert_eq!(highest_supported(100), Some(90));
        assert_eq!(highest_supported(200), Some(95));
        assert_eq!(highest_supported(1000), Some(99));
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut v = ramp(200);
        v.reverse();
        assert_eq!(percentile(&v, 95), Ok(190.0));
        assert_eq!(percentile(&v, 50), Ok(100.0));
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn summary_line_states_n() {
        let s = Summary::of(&ramp(100));
        assert_eq!(s.tail, Some((90, 90.0)));
        let line = s.line("lat", "ms");
        assert!(line.contains("p90 90.0000 ms"), "{line}");
        assert!(line.contains("(n = 100)"), "{line}");
        let short = Summary::of(&ramp(5)).line("lat", "ms");
        assert!(short.contains("no percentile supported"), "{short}");
    }

    #[test]
    fn ratio_prints_its_base() {
        let r = Ratio::new(3.0, 4.0);
        assert_eq!(r.value(), 0.75);
        assert_eq!(r.to_string(), "0.7500 (3/4)");
        assert_eq!(Ratio::new(0.0, 0.0).value(), 0.0);
        assert_eq!(Ratio::new(0.0, 0.0).to_string(), "n/a (0/0)");
    }
}
