//! Order statistics used by every workload and by the steadiness check.

/// Linear-interpolated percentile (numpy's default) of `xs`, `p` in
/// `[0, 100]` (clamped). 0 for an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p.clamp(0.0, 100.0) / 100.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Median (the 50th percentile). 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Arithmetic mean. 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// First, second and third quartile, computed exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method).
/// `None` for fewer than two values.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let n = xs.len();
    if n < 2 {
        return None;
    }
    let mut d = xs.to_vec();
    d.sort_by(f64::total_cmp);
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        // Negative when the clamp moved `j` up (extrapolation, as Python).
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range as a share of the median: the spread measure the
/// benchmark's bounds are stated in. `None` for fewer than two values or a
/// zero median.
pub fn quartile_spread(xs: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(xs)?;
    let med = median(xs);
    (med != 0.0).then(|| (q3 - q1) / med)
}

/// Running mean and coefficient of variation (population standard
/// deviation over mean) without storing the samples.
#[derive(Debug, Clone, Copy, Default)]
pub struct Moments {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Moments {
    /// Add one sample (Welford's update).
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
    }

    /// Samples seen.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Mean of the samples (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Coefficient of variation (0 when empty or the mean is 0).
    pub fn cv(&self) -> f64 {
        if self.n == 0 || self.mean == 0.0 {
            0.0
        } else {
            (self.m2 / self.n as f64).sqrt() / self.mean
        }
    }
}
