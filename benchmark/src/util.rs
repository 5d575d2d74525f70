//! Seeded input generation and the run-value estimators.

/// SplitMix64: every input of a run (keys, probe order, request mix) is
/// drawn from one of these seeded with `--seed`, so the same seed gives
/// the same inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias at these sizes is < 2^-40).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `n` distinct keys (SplitMix64 is a bijection of its counter, so
    /// consecutive outputs never repeat).
    pub fn keys(&mut self, n: usize) -> Vec<u64> {
        (0..n).map(|_| self.next_u64()).collect()
    }
}

/// Every stored value is a function of its key, so a reply is checked
/// without an oracle map.
pub fn value_of(key: u64) -> u64 {
    key.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ 0x5EED
}

/// Zipf(θ) over ranks `0..n` by inverse-CDF table (loadgen's method).
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, theta: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += 1.0 / (rank as f64).powf(theta);
            cdf.push(total);
        }
        for mass in &mut cdf {
            *mass /= total;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&mass| mass < u)
            .min(self.cdf.len() - 1)
    }
}

/// `p`-quantile (nearest rank) of an unsorted sample; 0 when empty.
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    sorted[((sorted.len() - 1) as f64 * p).round() as usize]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The run value of a timed series: the 10th percentile of its per-slice
/// times. On this class of host (2 vCPUs of a shared, hyper-threaded
/// machine) a slice is either undisturbed or slowed 1.4–2.5x for
/// seconds at a time by a neighbour, so the median flips between two
/// states from run to run; the low decile is the undisturbed cost as
/// long as a tenth of the run was quiet (see NOISE.md).
pub fn quiet(samples: &[f64]) -> f64 {
    quantile(samples, 0.10)
}

/// Quartiles as Python's `statistics.quantiles(v, n=4)` (exclusive
/// method) gives them — the driver's spread is `(q3 - q1) / median`.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let at = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(1), at(2), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(Rng::new(7).keys(64), Rng::new(7).keys(64));
        assert_ne!(Rng::new(7).keys(64), Rng::new(8).keys(64));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q2 - 5.5).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(1000, 0.99);
        let mut rng = Rng::new(1);
        let draws: Vec<usize> = (0..10_000).map(|_| z.sample(&mut rng)).collect();
        assert!(draws.iter().all(|&r| r < 1000));
        let head = draws.iter().filter(|&&r| r < 10).count();
        assert!(head > 2_000, "top 1% of ranks drew only {head} of 10000");
    }
}
