//! Order statistics for timing samples.

/// The median of `samples` (mean of the two middle values for an even
/// count); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Samples that must lie beyond a reported percentile for it to be
/// reportable: a tail estimated from fewer points is mostly noise.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `q`-percentile (`0 < q < 1`) of `samples`.
///
/// # Errors
///
/// Fails when fewer than [`MIN_BEYOND`] samples lie beyond the reported
/// rank — e.g. a p99 needs at least 1000 samples.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    if !(q > 0.0 && q < 1.0) {
        return Err(format!("percentile {q} is outside (0, 1)"));
    }
    let n = samples.len();
    // Nearest rank: the smallest value with at least q·n samples at or
    // below it.
    let rank = ((q * n as f64).ceil() as usize).max(1);
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{} of {n} samples has {beyond} beyond it; at least {MIN_BEYOND} are needed",
            q * 100.0
        ));
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Ok(v[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let ok: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&ok, 0.99), Ok(990.0));
        let short: Vec<f64> = (1..=999).map(f64::from).collect();
        assert!(percentile(&short, 0.99).is_err());
        assert!(percentile(&[], 0.5).is_err());
    }

    #[test]
    fn p50_needs_twenty_samples() {
        let ok: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&ok, 0.5), Ok(10.0));
        assert!(percentile(&ok[..19], 0.5).is_err());
    }

    #[test]
    fn percentile_rejects_degenerate_q() {
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert!(percentile(&v, 0.0).is_err());
        assert!(percentile(&v, 1.0).is_err());
    }
}
