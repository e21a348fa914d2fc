//! Order statistics over small sample sets.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples`, interpolating linearly
/// between the two nearest order statistics. 0 for an empty set.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Which direction of a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Times, costs.
    Lower,
    /// Rates.
    Higher,
}

/// The best of `samples`: the repetition the machine disturbed least.
///
/// Every repetition of a run does identical work (the oracle checks
/// that), so repetitions differ only by what else the machine was doing
/// — and that only ever slows one down. On the shared 2-core VM this
/// benchmark was sized on, ten runs of one seed disagreed by 5.0 %
/// (quartile distance over median) on the median of nine repetitions,
/// by 2.3 % on their first quartile and by 1.7 % on their best; see
/// README.md, "Why the best repetition".
pub fn best(samples: &[f64], better: Better) -> f64 {
    let pick = match better {
        Better::Lower => f64::min,
        Better::Higher => f64::max,
    };
    samples.iter().copied().reduce(pick).unwrap_or(0.0)
}

/// Distance between the first and third quartile as a percentage of the
/// median: how far the repetitions of one run disagree.
pub fn spread_pct(samples: &[f64]) -> f64 {
    let m = median(samples);
    if m == 0.0 {
        return 0.0;
    }
    (quantile(samples, 0.75) - quantile(samples, 0.25)) / m.abs() * 100.0
}

/// `part / whole`, or 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let xs: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.0), 0.0);
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&xs, 1.0), 100.0);
        assert_eq!(quantile(&[10.0, 20.0], 0.25), 12.5);
    }

    #[test]
    fn quantile_ignores_input_order() {
        assert_eq!(quantile(&[9.0, 1.0, 5.0], 1.0), 9.0);
        assert_eq!(quantile(&[9.0, 1.0, 5.0], 0.0), 1.0);
    }

    #[test]
    fn spread_is_relative_to_the_median() {
        // quartiles 2 and 4 around a median of 3
        assert!((spread_pct(&[1.0, 2.0, 3.0, 4.0, 5.0]) - 200.0 / 3.0).abs() < 1e-9);
        assert_eq!(spread_pct(&[5.0, 5.0, 5.0]), 0.0);
        assert_eq!(spread_pct(&[]), 0.0);
    }

    #[test]
    fn best_follows_the_metrics_direction() {
        assert_eq!(best(&[3.0, 1.0, 2.0], Better::Lower), 1.0);
        assert_eq!(best(&[3.0, 1.0, 2.0], Better::Higher), 3.0);
        assert_eq!(best(&[], Better::Lower), 0.0);
    }

    #[test]
    fn ratio_guards_division_by_zero() {
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
