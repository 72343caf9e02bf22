//! Order statistics for the benchmark's timings.

/// Median of `xs` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// 1-based nearest rank of percentile `q` among `n` samples, in integer
/// per-mille arithmetic so that `0.9 * 100` is exactly 90.
fn rank(n: usize, q: f64) -> usize {
    let per_mille = (q.clamp(0.0, 1.0) * 1000.0).round() as usize;
    (per_mille * n).div_ceil(1000)
}

/// Nearest-rank percentile `q` (in `0..=1`) of `xs`; 0 for an empty slice.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    let s = sorted(xs);
    if s.is_empty() {
        return 0.0;
    }
    s[rank(s.len(), q).clamp(1, s.len()) - 1]
}

/// Samples of `n` that lie beyond the `q` percentile.
pub fn beyond(n: usize, q: f64) -> usize {
    n - rank(n, q)
}

/// The highest of the 90th, 99th and 99.9th percentiles that has at least
/// ten of `n` samples beyond it; `None` below 100 samples.
pub fn supported_tail(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.9].into_iter().find(|&q| beyond(n, q) >= 10)
}

/// A timing summary: sample count, median and the best-supported tail
/// (the maximum when no tail percentile has ten samples beyond it).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The tail percentile reported (see [`supported_tail`]), if any.
    pub tail_q: Option<f64>,
    /// Value at `tail_q` (the maximum when no tail is supported).
    pub tail: f64,
}

impl Summary {
    /// Summarizes `xs`.
    pub fn of(xs: &[f64]) -> Summary {
        let tail_q = supported_tail(xs.len());
        Summary {
            n: xs.len(),
            p50: median(xs),
            tail_q,
            tail: percentile(xs, tail_q.unwrap_or(1.0)),
        }
    }

    /// One human-readable line: `p50 X, p90 Y (n=N)`.
    pub fn describe(&self, unit: &str) -> String {
        let tail = match self.tail_q {
            Some(q) => format!("p{}", pct(q)),
            None => "max".to_string(),
        };
        format!(
            "p50 {:.4} {unit}, {tail} {:.4} {unit} (n={})",
            self.p50, self.tail, self.n
        )
    }
}

/// `q` as a percentile label number: 0.99 → 99, 0.999 → 99.9.
pub fn pct(q: f64) -> f64 {
    (q * 1000.0).round() / 10.0
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}
