//! Latency samples and the quantile rules the reports use.

/// Durations in nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<u64>);

impl Samples {
    pub fn push(&mut self, ns: u64) {
        self.0.push(ns);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The samples pushed `range.start`-th to `range.end`-th.
    pub fn range(&self, range: std::ops::Range<usize>) -> Samples {
        Samples(self.0[range].to_vec())
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    pub fn sum(&self) -> u64 {
        self.0.iter().sum()
    }

    /// The `q`-quantile in nanoseconds, linearly interpolated between
    /// the two nearest ranks; `0.0` for an empty set (a layer that did
    /// no work reports 0).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut sorted = self.0.clone();
        sorted.sort_unstable();
        let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        sorted[lo] as f64 * (1.0 - frac) + sorted[hi] as f64 * frac
    }

    pub fn p50_us(&self) -> f64 {
        self.quantile(0.5) / 1e3
    }

    pub fn p50_ns(&self) -> f64 {
        self.quantile(0.5)
    }

    pub fn p50_ms(&self) -> f64 {
        self.quantile(0.5) / 1e6
    }

    /// Whether at least ten samples lie beyond the `q`-quantile — the
    /// rule for quoting a tail percentile.
    pub fn supports(&self, q: f64) -> bool {
        self.0.len() as f64 * (1.0 - q) >= 10.0
    }
}

/// The gated timings over one segment of a timed phase. Every workload
/// cuts its timed phase into equal segments (seconds, batches of one
/// strategy, churn cycles, cold rounds) and reports the **median over
/// segments** of each, so a disturbed stretch of the run — this machine
/// has them, seconds long — does not move the number.
#[derive(Debug, Clone, Copy)]
pub struct Segment {
    pub per_s: f64,
    pub place_p50_us: f64,
    pub place_tail_us: f64,
    pub release_p50_us: f64,
    pub can_fit_p50_us: f64,
}

impl Segment {
    /// The segment's statistics: `placed` placements in `seconds`, and
    /// the samples taken within it. `tail_q` is the workload's quoted
    /// tail percentile.
    pub fn of(
        placed: u64,
        seconds: f64,
        place: &Samples,
        tail_q: f64,
        release: &Samples,
        can_fit: &Samples,
    ) -> Segment {
        Segment {
            per_s: placed as f64 / seconds,
            place_p50_us: place.p50_us(),
            place_tail_us: place.quantile(tail_q) / 1e3,
            release_p50_us: release.p50_us(),
            can_fit_p50_us: can_fit.p50_us(),
        }
    }
}

/// Median over segments of one of their values; a segment in which the
/// operation never ran (value 0) does not count.
pub fn median_of(segments: &[Segment], value: impl Fn(&Segment) -> f64) -> f64 {
    let values: Vec<f64> = segments.iter().map(value).filter(|v| *v != 0.0).collect();
    median(&values)
}

/// Median of a set of floats (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// `(q1, median, q3)` as Python's `statistics.quantiles(values, n=4)`
/// (the default *exclusive* method) gives them — the rule the driver
/// applies to the ten runs it makes.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => (0.0, 0.0, 0.0),
        1 => (v[0], v[0], v[0]),
        _ => {
            let at = |i: usize| {
                // Position i*(n+1)/4, 1-based, clamped to the data.
                let pos = i * (n + 1);
                let j = (pos / 4).clamp(1, n - 1);
                let delta = pos as f64 / 4.0 - j as f64;
                v[j - 1] + (v[j] - v[j - 1]) * delta
            };
            (at(1), at(2), at(3))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let mut s = Samples::default();
        for i in 0..40 {
            s.push(i);
        }
        assert!(s.supports(0.75) && !s.supports(0.9));
        for i in 0..960 {
            s.push(i);
        }
        assert!(s.supports(0.99));
    }
}
