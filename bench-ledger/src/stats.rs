//! Order statistics over timing samples, and the regression-bound rule.

/// Sorted copy of `xs` (total order; the samples here are never NaN).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median, or `None` for no samples.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The three quartile cut points, computed exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the default `exclusive` method), so
/// spreads reported here match the ones an outside checker computes.
/// `None` for fewer than two samples.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(xs);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    // Integer arithmetic as in CPython; `delta` goes negative when the
    // clamp pulls `j` up (two samples).
    let (n, m) = (4i64, ld as i64 + 1);
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld as i64 - 1);
        let delta = (i * m - j * n) as f64;
        let (lo, hi) = (v[j as usize - 1], v[j as usize]);
        *slot = (lo * (n as f64 - delta) + hi * delta) / n as f64;
    }
    Some(out)
}

/// The highest percentile that still has at least ten samples beyond
/// it — percentile `100 × (n − 10) / n`, the sample with exactly ten
/// larger ones. `None` with fewer than eleven samples.
pub fn tail(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    (n >= 11).then(|| v[n - 11])
}

/// Which direction of a metric is an improvement.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (throughput).
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Whether `new` is no worse than `base` by more than `bound` (a share
/// of `base`) in the `better` direction.
pub fn within_bound(better: Better, base: f64, new: f64, bound: f64) -> bool {
    match better {
        Better::Lower => new <= base * (1.0 + bound),
        Better::Higher => new >= base * (1.0 - bound),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&xs).unwrap_or_default();
        assert!(close(q[0], 2.75) && close(q[1], 5.5) && close(q[2], 8.25), "{q:?}");
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), Some([1.0, 3.0, 5.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        assert_eq!(tail(&[1.0; 10]), None, "ten samples leave none to spare");
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&xs), Some(1.0));
        // 300 samples: p96.7, with exactly ten samples above it.
        let xs: Vec<f64> = (1..=300).rev().map(f64::from).collect();
        let v = tail(&xs).unwrap_or_default();
        assert_eq!(v, 290.0);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
    }

    #[test]
    fn bound_check_respects_direction() {
        assert!(within_bound(Better::Lower, 100.0, 108.0, 0.08));
        assert!(!within_bound(Better::Lower, 100.0, 108.5, 0.08));
        assert!(within_bound(Better::Lower, 100.0, 50.0, 0.08), "faster is never a regression");
        assert!(within_bound(Better::Higher, 100.0, 92.0, 0.08));
        assert!(!within_bound(Better::Higher, 100.0, 91.0, 0.08));
        assert!(within_bound(Better::Higher, 100.0, 150.0, 0.08));
    }
}
