//! Small statistics toolkit for the experiment harnesses.
//!
//! Everything above [`QuantileSketch`] operates on materialized sample
//! vectors — fine for the single-link sweeps, useless for the streaming
//! scenario engine where 10⁸ per-listener observations must fold into
//! constant memory. The sketch half of this module provides the mergeable,
//! bounded-footprint aggregates that `scenario` runs on.

use std::collections::BTreeMap;

/// Arithmetic mean (0 for empty input).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Linear-interpolated percentile, `p` in [0, 100].
///
/// # Panics
/// Panics on empty input or `p` outside [0, 100].
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of empty sample");
    assert!((0.0..=100.0).contains(&p), "p in [0,100]");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        v[lo]
    } else {
        let w = rank - lo as f64;
        v[lo] * (1.0 - w) + v[hi] * w
    }
}

/// Median.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Five-number summary for boxplots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoxStats {
    /// Minimum.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Maximum.
    pub max: f64,
}

impl BoxStats {
    /// Computes the summary.
    ///
    /// # Panics
    /// Panics on empty input.
    pub fn of(xs: &[f64]) -> BoxStats {
        BoxStats {
            min: percentile(xs, 0.0),
            q1: percentile(xs, 25.0),
            median: percentile(xs, 50.0),
            q3: percentile(xs, 75.0),
            max: percentile(xs, 100.0),
        }
    }
}

impl std::fmt::Display for BoxStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "min {:.2} | q1 {:.2} | med {:.2} | q3 {:.2} | max {:.2}",
            self.min, self.q1, self.median, self.q3, self.max
        )
    }
}

/// Relative value accuracy of [`QuantileSketch`]: a reported quantile is
/// within `±SKETCH_ALPHA · |true value|` of the exact sample quantile.
pub const SKETCH_ALPHA: f64 = 0.01;

/// Bucket budget of one sketch. 1024 buckets at α = 1 % span a dynamic
/// range of ~10⁸ before the low-end collapse engages, and cap the sketch at
/// a few KB regardless of how many values stream through it.
pub const SKETCH_MAX_BUCKETS: usize = 1024;

/// A mergeable streaming quantile sketch (DDSketch-style logarithmic
/// buckets) for non-negative observations.
///
/// * **Bounded memory**: at most [`SKETCH_MAX_BUCKETS`] buckets plus a few
///   scalars, however many values are inserted. When the budget is
///   exceeded the lowest buckets collapse into one, preserving the
///   accuracy of the upper quantiles (the tail the scenario reports care
///   about).
/// * **Mergeable**: [`merge`](Self::merge) is bucket-wise addition — exact,
///   commutative, and associative as long as no collapse triggers, so
///   per-worker partial sketches fold into the same result in any
///   grouping. The scenario engine merges partials in fixed chunk order,
///   making reports byte-identical for any worker count even past the
///   collapse point.
/// * **Deterministic**: buckets live in a [`BTreeMap`]; iteration order and
///   the collapse rule are pure functions of the inserted multiset.
///
/// Rank guarantee: `quantile(q)` returns a value within relative
/// [`SKETCH_ALPHA`] of the exact `q`-quantile of everything inserted
/// (exactly 0 is tracked in a dedicated counter and returned exactly).
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    /// log(gamma) with gamma = (1+α)/(1−α); bucket i covers (γ^(i−1), γ^i].
    ln_gamma: f64,
    /// Bucket index → count. Key `i` holds values in (γ^(i−1), γ^i].
    buckets: BTreeMap<i32, u64>,
    /// Count of exact zeros (not representable by a log bucket).
    zeros: u64,
    /// Total observations, including zeros.
    count: u64,
    /// Smallest / largest value seen (exact; clamps the quantile answers).
    min: f64,
    max: f64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        Self::new()
    }
}

impl QuantileSketch {
    /// An empty sketch at [`SKETCH_ALPHA`] relative accuracy.
    pub fn new() -> Self {
        let gamma = (1.0 + SKETCH_ALPHA) / (1.0 - SKETCH_ALPHA);
        QuantileSketch {
            ln_gamma: gamma.ln(),
            buckets: BTreeMap::new(),
            zeros: 0,
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Number of observations inserted.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether nothing has been inserted.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Inserts one observation. Negative or non-finite values are clamped
    /// to 0 (the scenario metrics — loss fractions, latencies, byte counts
    /// — are all non-negative by construction).
    pub fn insert(&mut self, x: f64) {
        let x = if x.is_finite() && x > 0.0 { x } else { 0.0 };
        self.count += 1;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        if x == 0.0 {
            self.zeros += 1;
            return;
        }
        let key = (x.ln() / self.ln_gamma).ceil() as i32;
        *self.buckets.entry(key).or_insert(0) += 1;
        if self.buckets.len() > SKETCH_MAX_BUCKETS {
            self.collapse_lowest();
        }
    }

    /// Inserts `n` copies of `x` (constant-time in `n`).
    pub fn insert_n(&mut self, x: f64, n: u64) {
        if n == 0 {
            return;
        }
        let x = if x.is_finite() && x > 0.0 { x } else { 0.0 };
        self.count += n;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        if x == 0.0 {
            self.zeros += n;
            return;
        }
        let key = (x.ln() / self.ln_gamma).ceil() as i32;
        *self.buckets.entry(key).or_insert(0) += n;
        if self.buckets.len() > SKETCH_MAX_BUCKETS {
            self.collapse_lowest();
        }
    }

    /// Folds `other` into `self` (bucket-wise addition).
    pub fn merge(&mut self, other: &QuantileSketch) {
        self.count += other.count;
        self.zeros += other.zeros;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (&k, &n) in &other.buckets {
            *self.buckets.entry(k).or_insert(0) += n;
        }
        while self.buckets.len() > SKETCH_MAX_BUCKETS {
            self.collapse_lowest();
        }
    }

    /// Merges the two lowest buckets, preserving total count. Upper
    /// quantiles are unaffected; the collapsed low end degrades toward "no
    /// better than the second-lowest surviving bucket" — the documented
    /// trade for bounded memory.
    fn collapse_lowest(&mut self) {
        let Some((&lo, &n_lo)) = self.buckets.iter().next() else {
            return;
        };
        self.buckets.remove(&lo);
        if let Some((&lo2, _)) = self.buckets.iter().next() {
            *self.buckets.entry(lo2).or_insert(0) += n_lo;
        } else {
            self.buckets.insert(lo, n_lo); // single bucket: nothing to do
        }
    }

    /// The `q`-quantile (`q` in [0, 1]) of everything inserted, within
    /// relative [`SKETCH_ALPHA`]. Returns 0 for an empty sketch.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the order statistic we are after (1-based).
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        if rank <= self.zeros {
            return 0.0;
        }
        let mut seen = self.zeros;
        for (&k, &n) in &self.buckets {
            seen += n;
            if seen >= rank {
                // Geometric midpoint of bucket (γ^(k−1), γ^k]: value with
                // relative error ≤ α against anything in the bucket.
                let mid = ((k as f64 - 0.5) * self.ln_gamma).exp();
                return mid.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Approximate heap footprint in bytes (buckets dominate).
    pub fn bytes(&self) -> usize {
        // BTreeMap node overhead amortizes to roughly 2× payload.
        std::mem::size_of::<Self>() + self.buckets.len() * 2 * (4 + 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_median_simple() {
        let xs = [1.0, 2.0, 3.0, 4.0, 100.0];
        assert!((mean(&xs) - 22.0).abs() < 1e-12);
        assert!((median(&xs) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [0.0, 10.0];
        assert!((percentile(&xs, 50.0) - 5.0).abs() < 1e-12);
        assert!((percentile(&xs, 0.0) - 0.0).abs() < 1e-12);
        assert!((percentile(&xs, 100.0) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_unsorted_input() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert!((median(&xs) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn boxstats_ordering() {
        let xs: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let b = BoxStats::of(&xs);
        assert!(b.min <= b.q1 && b.q1 <= b.median && b.median <= b.q3 && b.q3 <= b.max);
        assert!((b.median - 49.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_percentile_panics() {
        let _ = percentile(&[], 50.0);
    }

    #[test]
    fn sketch_tracks_exact_zeros_and_extremes() {
        let mut s = QuantileSketch::new();
        for _ in 0..10 {
            s.insert(0.0);
        }
        s.insert(5.0);
        assert_eq!(s.count(), 11);
        assert_eq!(s.quantile(0.5), 0.0, "zeros dominate the median");
        assert!((s.quantile(1.0) - 5.0).abs() / 5.0 <= 2.0 * SKETCH_ALPHA);
    }

    #[test]
    fn sketch_quantiles_within_alpha_on_uniform_grid() {
        let mut s = QuantileSketch::new();
        let xs: Vec<f64> = (1..=10_000).map(|i| i as f64 * 0.01).collect();
        for &x in &xs {
            s.insert(x);
        }
        for q in [0.01, 0.25, 0.5, 0.9, 0.99] {
            let exact = percentile(&xs, q * 100.0);
            let got = s.quantile(q);
            assert!(
                (got - exact).abs() <= 2.0 * SKETCH_ALPHA * exact + 1e-9,
                "q={q}: sketch {got} vs exact {exact}"
            );
        }
    }

    #[test]
    fn sketch_merge_equals_single_stream() {
        let xs: Vec<f64> = (0..5_000).map(|i| ((i * 2654435761u64 % 997) + 1) as f64).collect();
        let mut whole = QuantileSketch::new();
        let mut a = QuantileSketch::new();
        let mut b = QuantileSketch::new();
        for (i, &x) in xs.iter().enumerate() {
            whole.insert(x);
            if i % 2 == 0 {
                a.insert(x);
            } else {
                b.insert(x);
            }
        }
        a.merge(&b);
        assert_eq!(a, whole, "merge must be exact bucket-wise addition");
    }

    #[test]
    fn sketch_memory_stays_bounded_under_huge_range() {
        let mut s = QuantileSketch::new();
        // Dynamic range far past what the bucket budget can represent.
        for i in 0..200_000u64 {
            s.insert(((i % 40_000) as f64 + 1.0).powf(3.0));
        }
        assert!(s.buckets.len() <= SKETCH_MAX_BUCKETS);
        assert!(s.bytes() < 64 * 1024, "bytes {}", s.bytes());
        // Upper quantiles keep their guarantee even after collapse.
        let p99 = s.quantile(0.99);
        assert!(p99 > 0.9 * 39_000f64.powf(3.0) * 0.95, "p99 {p99}");
    }

    #[test]
    fn sketch_insert_n_matches_repeated_insert() {
        let mut a = QuantileSketch::new();
        let mut b = QuantileSketch::new();
        for _ in 0..37 {
            a.insert(3.25);
        }
        b.insert_n(3.25, 37);
        assert_eq!(a, b);
    }
}
