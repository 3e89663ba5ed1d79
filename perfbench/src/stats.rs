//! Percentiles under the benchmark's reporting rule.
//!
//! Every timing is reported as its median, the highest percentile that
//! still has at least [`TAIL_SAMPLES`] samples beyond it, and its sample
//! count. Percentiles use the nearest-rank definition, so a reported
//! value is always one of the measured samples.

/// Samples that must lie beyond a tail percentile for it to be reported.
pub const TAIL_SAMPLES: usize = 10;

/// The nearest-rank `q`-quantile of `sorted` (ascending), `q` in (0, 1].
/// Returns 0 for an empty slice.
#[must_use]
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest quantile of `n` samples with at least [`TAIL_SAMPLES`]
/// samples strictly above its rank, rounded down to a tenth of a
/// percent and capped at 0.999; `None` when even the median lacks them.
#[must_use]
pub fn supported_tail(n: usize) -> Option<f64> {
    if n < 2 * TAIL_SAMPLES {
        return None;
    }
    let q = ((n - TAIL_SAMPLES) as f64 / n as f64 * 1000.0).floor() / 1000.0;
    Some(q.min(0.999))
}

/// Summary of one timing (or other sampled quantity).
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The highest quantile the rule allows, and its value.
    pub tail: Option<(f64, f64)>,
    sorted: Vec<f64>,
}

impl Summary {
    /// Summarises `samples` (any order).
    #[must_use]
    pub fn of(mut samples: Vec<f64>) -> Summary {
        samples.sort_by(f64::total_cmp);
        let tail = supported_tail(samples.len()).map(|q| (q, quantile(&samples, q)));
        Summary {
            n: samples.len(),
            p50: quantile(&samples, 0.5),
            tail,
            sorted: samples,
        }
    }

    /// The nearest-rank `q`-quantile.
    #[must_use]
    pub fn at(&self, q: f64) -> f64 {
        quantile(&self.sorted, q)
    }

    /// The summary as a JSON object (`n`, `p50`, `q_hi`, `p_hi`).
    #[must_use]
    pub fn json(&self) -> String {
        match self.tail {
            Some((q, v)) => format!(
                "{{\"n\":{},\"p50\":{},\"q_hi\":{q},\"p_hi\":{v}}}",
                self.n, self.p50
            ),
            None => format!("{{\"n\":{},\"p50\":{},\"q_hi\":null}}", self.n, self.p50),
        }
    }
}

/// Median of `values` (0 when empty).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values.to_vec()).p50
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 0.9), 90.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&xs, 1.0), 100.0);
        assert_eq!(quantile(&xs, 0.0001), 1.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(20), Some(0.5));
        assert_eq!(supported_tail(100), Some(0.9));
        assert_eq!(supported_tail(1000), Some(0.99));
        assert_eq!(supported_tail(1_000_000), Some(0.999));
        for n in 20..3000 {
            let q = supported_tail(n).unwrap();
            let rank = (q * n as f64).ceil() as usize;
            assert!(n - rank >= TAIL_SAMPLES, "n={n} q={q} leaves {}", n - rank);
        }
    }

    #[test]
    fn summary_reports_median_tail_and_count() {
        let s = Summary::of((1..=200).rev().map(f64::from).collect());
        assert_eq!(s.n, 200);
        assert_eq!(s.p50, 100.0);
        assert_eq!(s.tail, Some((0.95, 190.0)));
        assert_eq!(s.at(0.9), 180.0);
        assert_eq!(
            s.json(),
            "{\"n\":200,\"p50\":100,\"q_hi\":0.95,\"p_hi\":190}"
        );
        let few = Summary::of(vec![3.0, 1.0, 2.0]);
        assert_eq!(few.tail, None);
        assert_eq!(few.p50, 2.0);
    }
}
