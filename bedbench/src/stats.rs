//! Order statistics shared by the run metrics and the steadiness report.

/// Percentile `q` (0..=1) of an ascending sample, interpolating linearly
/// between the two closest ranks. `None` for an empty sample.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let last = sorted.len().checked_sub(1)?;
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// Median and tail of one timing sample, with the count behind them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    pub p50: f64,
    pub p90: f64,
    pub count: usize,
}

impl Timing {
    /// Summarises `values` (any order). `None` when empty.
    pub fn of(values: &[f64]) -> Option<Timing> {
        let sorted = sorted(values);
        Some(Timing {
            p50: percentile(&sorted, 0.5)?,
            p90: percentile(&sorted, 0.9)?,
            count: sorted.len(),
        })
    }

    /// Samples lying beyond the p90 — the tail the p90 rests on.
    pub fn beyond_p90(&self) -> usize {
        self.count - (self.count as f64 * 0.9).ceil() as usize
    }
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> Option<f64> {
    percentile(&sorted(values), 0.5)
}

/// First and third quartile with Python's `statistics.quantiles(values,
/// n=4)` default ("exclusive") method, so the steadiness report matches
/// the acceptance check bit for bit. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// `(q3 - q1) / median`: the run-to-run spread the bound is checked
/// against.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    Some((q3 - q1) / median(values)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_and_counts() {
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(6.0));
        assert_eq!(percentile(&v, 0.9), Some(10.0));
        assert_eq!(percentile(&[2.0, 4.0], 0.5), Some(3.0));
        assert_eq!(percentile(&[], 0.5), None);

        let t = Timing::of(&[5.0, 1.0, 3.0, 2.0, 4.0]).unwrap();
        assert_eq!((t.p50, t.count), (3.0, 5));
        assert!((t.p90 - 4.6).abs() < 1e-12);

        let many: Vec<f64> = (0..1000).map(f64::from).collect();
        let t = Timing::of(&many).unwrap();
        assert_eq!(t.count, 1000);
        assert_eq!(t.beyond_p90(), 100);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
        let s = spread(&v).unwrap();
        assert!((s - 5.5 / 5.5).abs() < 1e-12);
    }
}
