//! Order statistics for the benchmark's timings.

/// Median of `xs` (mean of the two middle values for an even count);
/// 0 for an empty slice.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Percentiles tried for a timing's tail, highest first.
const TAIL_PERCENTILES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a tail percentile for it to be reported.
const TAIL_MIN_BEYOND: usize = 10;

/// A timing reported as its median (nearest rank) plus the highest percentile that has
/// at least ten samples beyond it, with the sample count. When fewer
/// than eleven samples exist no percentile qualifies: the tail is then
/// the maximum and `tail_pct` reads 100.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Timing {
    /// Median sample.
    pub p50: f64,
    /// Value at `tail_pct`.
    pub tail: f64,
    /// Which percentile `tail` is.
    pub tail_pct: f64,
    /// Sample count.
    pub n: usize,
}

/// Nearest-rank percentile of sorted samples: the smallest sample with
/// at least `pct`% of the samples at or below it.
fn nearest_rank(sorted: &[f64], pct: f64) -> (usize, f64) {
    let n = sorted.len();
    let rank = ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    (rank, sorted[rank - 1])
}

/// Summarizes timing samples (any unit; the result keeps it).
#[must_use]
pub fn timing(samples: &[f64]) -> Timing {
    if samples.is_empty() {
        return Timing::default();
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let (tail_pct, tail) = TAIL_PERCENTILES
        .iter()
        .find_map(|&pct| {
            let (rank, value) = nearest_rank(&v, pct);
            (n - rank >= TAIL_MIN_BEYOND).then_some((pct, value))
        })
        .unwrap_or((100.0, v[n - 1]));
    Timing {
        p50: nearest_rank(&v, 50.0).1,
        tail,
        tail_pct,
        n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = timing(&xs);
        assert_eq!((t.tail_pct, t.tail, t.n), (99.0, 990.0, 1000));
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(timing(&twenty).tail_pct, 50.0);
        let fifteen: Vec<f64> = (1..=15).map(f64::from).collect();
        assert_eq!(timing(&fifteen).tail_pct, 100.0);
        let t = timing(&[5.0, 1.0, 3.0]);
        assert_eq!((t.tail_pct, t.tail, t.p50), (100.0, 5.0, 3.0));
        assert_eq!(timing(&twenty).p50, timing(&twenty).tail);
    }
}
