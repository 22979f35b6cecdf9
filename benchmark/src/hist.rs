//! Latency histogram, the percentile rule, and the small-sample
//! statistics (median, MAD, quartiles) every reported value goes
//! through.

/// Sub-buckets per octave: bucket width is at most 1/64 of its value.
const SUB: u64 = 64;
/// Values are clamped below 2^40 ns (~18 min).
const MAX_SHIFT: u32 = 33;
const BUCKETS: usize = ((MAX_SHIFT as u64 + 2) * SUB) as usize;

/// A fixed-size log-linear histogram of nanosecond latencies: exact
/// below 128 ns, 1.6 % buckets above. Fixed memory, whatever the run
/// completed.
#[derive(Debug, Clone)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            n: 0,
        }
    }
}

fn shift_of(v: u64) -> u32 {
    // floor(log2 v) - 6, clamped to [0, MAX_SHIFT].
    (63 - (v | 1).leading_zeros())
        .saturating_sub(6)
        .min(MAX_SHIFT)
}

impl Hist {
    pub fn record(&mut self, ns: u64) {
        let v = ns.min((1 << 40) - 1);
        let s = shift_of(v);
        self.counts[(u64::from(s) * SUB + (v >> s)) as usize] += 1;
        self.n += 1;
    }

    pub fn len(&self) -> u64 {
        self.n
    }

    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.n = 0;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    /// The `q`-quantile (0 < q < 1) in ns, interpolated inside its
    /// bucket so the value keeps all the digits the samples give it.
    /// `None` unless at least [`MIN_BEYOND`] samples lie beyond it: a
    /// p99 of 300 samples is the 3rd largest, which is an anecdote.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let rank = q * self.n as f64;
        if (self.n as f64 - rank) < MIN_BEYOND as f64 {
            return None;
        }
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && (below + c) as f64 >= rank {
                // Invert the index: rows 0 and 1 both have shift 0.
                let i = i as u64;
                let s = (i / SUB).saturating_sub(1);
                let lo = (i - s * SUB) << s;
                let width = (1u64 << s) as f64;
                return Some(lo as f64 + width * (rank - below as f64) / c as f64);
            }
            below += c;
        }
        None
    }
}

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: u64 = 10;

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The value a share `p` (0..=1) of `values` lies below, interpolated
/// between neighbours: `p = 0.1` is the first decile.
pub fn quantile_of(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    assert!(!v.is_empty(), "quantile of nothing");
    let at = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = at.floor() as usize;
    let hi = (lo + 1).min(v.len() - 1);
    v[lo] + (v[hi] - v[lo]) * (at - lo as f64)
}

/// Median absolute deviation from the median.
pub fn mad(values: &[f64]) -> f64 {
    let m = median(values);
    median(&values.iter().map(|v| (v - m).abs()).collect::<Vec<_>>())
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) gives
/// them — the rule the acceptance check uses. Needs two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need two values");
    let at = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_tight() {
        let mut prev = 0usize;
        for v in (0..100_000u64).chain((17..40).map(|e| (1u64 << e) + 12345)) {
            let s = shift_of(v);
            let i = (u64::from(s) * SUB + (v >> s)) as usize;
            assert!(i >= prev && i < BUCKETS, "monotone index at {v}");
            prev = i;
            let mut h = Hist::default();
            for _ in 0..100 {
                h.record(v);
            }
            let got = h.quantile(0.5).unwrap();
            assert!(
                got >= v as f64 - (v as f64 / 64.0) - 1.0
                    && got <= v as f64 + v as f64 / 64.0 + 1.0,
                "{v} read back as {got}"
            );
        }
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        let mut h = Hist::default();
        for v in 1..=999u64 {
            h.record(v);
        }
        assert!(h.quantile(0.5).is_some());
        // 999 samples leave 9.99 beyond the p99.
        assert_eq!(h.quantile(0.99), None);
        h.record(1000);
        let p99 = h.quantile(0.99).unwrap();
        assert!((p99 - 990.0).abs() <= 1.0, "{p99}");
        let p50 = h.quantile(0.5).unwrap();
        assert!((p50 - 500.0).abs() <= 1.0, "{p50}");
        // 19 samples: p50 leaves 9.5 beyond.
        let mut small = Hist::default();
        (0..19).for_each(|v| small.record(v));
        assert_eq!(small.quantile(0.5), None);
        small.record(19);
        assert!(small.quantile(0.5).is_some());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), (0.5, 3.5));
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 4.5));
        assert_eq!(median(&v), 5.5);
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 100.0]), 1.0);
        // Eleven values: the deciles fall on them.
        let w: Vec<f64> = (0..=10).rev().map(f64::from).collect();
        assert_eq!(quantile_of(&w, 0.1), 1.0);
        assert_eq!(quantile_of(&w, 0.9), 9.0);
        assert_eq!(quantile_of(&w, 0.25), 2.5);
        assert_eq!(quantile_of(&[7.0], 0.1), 7.0);
    }
}
