//! Latency recording and the reporting rules: a fixed-size log-linear
//! histogram (so the benchmark's own memory does not grow with the
//! throughput it measures and `rss_mb` stays the product's), the
//! percentile rule, and median-window selection.

/// Sub-buckets per power of two: 128 ⇒ bucket width ≤ 0.8 % of the value.
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// Values are clamped below 2^40 ns (~18 min), far above any run.
const MAX_EXP: u32 = 40;
const BUCKETS: usize = (SUB as usize) * (MAX_EXP - SUB_BITS + 1) as usize;

/// A percentile is reported only if at least this many samples lie
/// beyond it; fewer and the figure is one scheduler hiccup, not a tail.
pub const MIN_SAMPLES_BEYOND: u64 = 10;

/// Log-linear histogram over nanosecond values.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { counts: vec![0; BUCKETS], total: 0 }
    }
}

fn bucket_of(ns: u64) -> usize {
    let ns = ns.min((1 << MAX_EXP) - 1);
    if ns < SUB {
        return ns as usize;
    }
    let shift = (63 - ns.leading_zeros()) - SUB_BITS;
    (SUB as usize) * (shift as usize + 1) + ((ns >> shift) - SUB) as usize
}

/// Lower edge and width of bucket `idx`, in ns.
fn bucket_range(idx: usize) -> (u64, u64) {
    if idx < SUB as usize {
        return (idx as u64, 1);
    }
    let shift = (idx / SUB as usize - 1) as u32;
    let mantissa = SUB + (idx % SUB as usize) as u64;
    (mantissa << shift, 1 << shift)
}

impl Histogram {
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.total += 1;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
    }

    /// The `p`-quantile in ns (`0 < p < 1`), interpolated inside its
    /// bucket. Refused — not estimated — when fewer than
    /// [`MIN_SAMPLES_BEYOND`] samples lie beyond it.
    pub fn percentile(&self, p: f64) -> Result<f64, String> {
        let beyond = self.total - (p * self.total as f64).ceil() as u64;
        if beyond < MIN_SAMPLES_BEYOND {
            return Err(format!(
                "p{} needs {MIN_SAMPLES_BEYOND} samples beyond it, have {beyond} of {}",
                p * 100.0,
                self.total
            ));
        }
        let rank = p * self.total as f64;
        let mut below = 0u64;
        for (idx, &count) in self.counts.iter().enumerate() {
            if count > 0 && (below + count) as f64 >= rank {
                let (lo, width) = bucket_range(idx);
                let inside = (rank - below as f64) / count as f64;
                return Ok(lo as f64 + inside * width as f64);
            }
            below += count;
        }
        unreachable!("rank {rank} lies within the {} recorded samples", self.total)
    }
}

/// The median of per-window values: every timing metric is computed per
/// window and the median window is what a run reports, so one disturbed
/// window moves nothing.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no windows");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_tight() {
        let mut prev_end = 0u64;
        for idx in 0..BUCKETS {
            let (lo, width) = bucket_range(idx);
            assert_eq!(lo, prev_end, "bucket {idx} leaves a gap");
            assert_eq!(bucket_of(lo), idx);
            assert_eq!(bucket_of(lo + width - 1), idx);
            if lo >= SUB {
                assert!((width as f64) / (lo as f64) <= 1.0 / SUB as f64);
            }
            prev_end = lo + width;
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn percentiles_interpolate_within_a_percent() {
        let mut h = Histogram::default();
        for v in 1..=100_000u64 {
            h.record(v * 10);
        }
        let p50 = h.percentile(0.50).unwrap();
        let p99 = h.percentile(0.99).unwrap();
        assert!((p50 / 500_000.0 - 1.0).abs() < 0.01, "p50 {p50}");
        assert!((p99 / 990_000.0 - 1.0).abs() < 0.01, "p99 {p99}");
    }

    #[test]
    fn percentile_rule_refuses_thin_tails() {
        let mut h = Histogram::default();
        for v in 0..999u64 {
            h.record(1_000 + v);
        }
        // 999 samples leave 9 beyond p99: refused. One more makes 10.
        assert!(h.percentile(0.99).is_err());
        assert!(h.percentile(0.50).is_ok());
        h.record(5_000);
        assert!(h.percentile(0.99).is_ok());
        assert!(Histogram::default().percentile(0.5).is_err());
    }

    #[test]
    fn median_window_ignores_one_disturbed_window() {
        assert_eq!(median(&[74.0, 75.0, 900.0, 73.0, 76.0]), 75.0);
        assert_eq!(median(&[2.0, 1.0, 4.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        for v in 0..50u64 {
            a.record(100 + v);
            b.record(10_000 + v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 100);
        assert!(a.percentile(0.25).unwrap() < 200.0);
        assert!(a.percentile(0.75).unwrap() > 9_000.0);
    }
}
