//! Seeded randomness and the summary statistics every metric is built from.

/// Deterministic generator (splitmix64): the same seed gives the same
/// request lists on every platform.
pub struct Rng(u64);

impl Rng {
    /// Seeds the generator.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Splits `total` draws over ranks `1..=ranks` in proportion to the zipf
/// weights `1 / rank^s`, by largest remainder; a rank left with none takes
/// one from the first. The counts are a fixed function of `(ranks, s,
/// total)`, so every seed sends the same multiset of requests and only their
/// order differs: a seed must not change how much cold work a run contains.
pub fn zipf_counts(ranks: usize, s: f64, total: usize) -> Vec<usize> {
    assert!(
        ranks > 0 && total >= ranks,
        "need at least one draw per rank"
    );
    let weights: Vec<f64> = (1..=ranks).map(|r| 1.0 / (r as f64).powf(s)).collect();
    let sum: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / sum * total as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut order: Vec<usize> = (0..ranks).collect();
    order.sort_by(|&a, &b| {
        let (fa, fb) = (exact[a].fract(), exact[b].fract());
        fb.total_cmp(&fa).then(a.cmp(&b))
    });
    let assigned: usize = counts.iter().sum();
    for &rank in order.iter().take(total - assigned) {
        counts[rank] += 1;
    }
    for rank in 1..ranks {
        if counts[rank] == 0 {
            counts[rank] = 1;
            counts[0] -= 1;
        }
    }
    counts
}

/// Nearest-rank percentile of an ascending-sorted sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n` samples.
/// A percentile is reported as resolved only with at least
/// [`MIN_TAIL_SAMPLES`] beyond it.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Samples a percentile needs beyond it to count as resolved.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// (the exclusive method) gives them; `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let len = data.len();
    if len < 2 {
        return None;
    }
    let cut = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of an empty sample");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Sum that does not depend on the order values arrived in (workers finish
/// in any order, and the simulated-seconds total must repeat bit for bit).
pub fn stable_sum(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), 50.0);
        assert_eq!(percentile(&sorted, 90.0), 90.0);
        assert_eq!(percentile(&sorted, 99.0), 99.0);
        assert_eq!(percentile(&sorted, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 50.0), 2.0);
    }

    #[test]
    fn tail_sample_rule_counts_samples_beyond_the_percentile() {
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(100, 99.0), 1);
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(144, 90.0), 14);
        assert_eq!(samples_beyond(1, 50.0), 0);
        assert!(samples_beyond(99, 90.0) < MIN_TAIL_SAMPLES);
        assert!(samples_beyond(1000, 99.0) >= MIN_TAIL_SAMPLES);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([3.0, 1.0], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some((0.5, 3.5)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn zipf_counts_carry_the_zipf_mass() {
        let counts = zipf_counts(15, 1.0, 340);
        assert_eq!(counts.iter().sum::<usize>(), 340);
        assert!(counts.iter().all(|&c| c >= 1));
        assert!(counts.windows(2).all(|w| w[0] >= w[1]), "{counts:?}");
        let harmonic: f64 = (1..=15).map(|r| 1.0 / f64::from(r)).sum();
        for (i, &c) in counts.iter().enumerate() {
            let want = 340.0 / ((i + 1) as f64 * harmonic);
            assert!(
                (c as f64 - want).abs() < 1.0,
                "rank {}: {c} draws, zipf mass wants {want:.1}",
                i + 1
            );
        }
        assert_eq!(counts, zipf_counts(15, 1.0, 340), "a pure function");
        let scarce = zipf_counts(15, 1.0, 20);
        assert_eq!(scarce.iter().sum::<usize>(), 20);
        assert!(scarce.iter().all(|&c| c >= 1), "{scarce:?}");
    }

    #[test]
    fn shuffles_repeat_per_seed_and_differ_across_seeds() {
        let shuffled = |seed| {
            let mut v: Vec<usize> = (0..48).collect();
            Rng::new(seed).shuffle(&mut v);
            v
        };
        assert_eq!(shuffled(7), shuffled(7));
        assert_ne!(shuffled(7), shuffled(8));
        let mut sorted = shuffled(7);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..48).collect::<Vec<_>>());
    }

    #[test]
    fn geomean_and_stable_sum() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        let a = [1e16, 1.0, -1e16, 3.0];
        let b = [3.0, -1e16, 1.0, 1e16];
        assert_eq!(stable_sum(&a).to_bits(), stable_sum(&b).to_bits());
    }
}
