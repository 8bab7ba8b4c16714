//! Regression error metrics.

/// Mean absolute *percentage* error (in percent) relative to the truth.
///
/// Entries whose truth is zero are skipped; returns 0.0 if everything was
/// skipped.
pub fn mean_abs_pct_error(pred: &[Vec<f64>], truth: &[Vec<f64>]) -> f64 {
    assert_eq!(pred.len(), truth.len(), "row count mismatch");
    let mut total = 0.0;
    let mut count = 0usize;
    for (p, t) in pred.iter().zip(truth) {
        for (a, b) in p.iter().zip(t) {
            if *b != 0.0 {
                total += ((a - b) / b).abs() * 100.0;
                count += 1;
            }
        }
    }
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mape_is_relative_and_skips_zero_truth() {
        let p = vec![vec![1.1, 5.0]];
        let t = vec![vec![1.0, 0.0]];
        let e = mean_abs_pct_error(&p, &t);
        assert!((e - 10.0).abs() < 1e-9);
    }

    #[test]
    fn mape_is_zero_when_every_truth_is_zero() {
        let p = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        let t = vec![vec![0.0, 0.0], vec![0.0, 0.0]];
        assert_eq!(mean_abs_pct_error(&p, &t), 0.0);
    }
}
