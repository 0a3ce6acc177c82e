//! Score statistics: mean, standard deviation and standard error.
//!
//! Every table in the paper reports "mean ± standard error over 5 runs";
//! [`Summary`] reproduces exactly that.

use serde::{Deserialize, Serialize};

/// Summary statistics of a set of repeated-trial scores.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n-1 denominator); 0 for n < 2.
    pub std_dev: f64,
    /// Standard error of the mean (std_dev / sqrt(n)); 0 for n < 2.
    pub std_err: f64,
    /// Minimum sample.
    pub min: f64,
    /// Maximum sample.
    pub max: f64,
}

impl Summary {
    /// Compute summary statistics over `samples`.  Returns an all-zero
    /// summary for an empty slice.
    pub fn from_samples(samples: &[f64]) -> Self {
        let n = samples.len();
        if n == 0 {
            return Summary {
                n: 0,
                mean: 0.0,
                std_dev: 0.0,
                std_err: 0.0,
                min: 0.0,
                max: 0.0,
            };
        }
        let mean = samples.iter().sum::<f64>() / n as f64;
        let (std_dev, std_err) = if n > 1 {
            let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
            let sd = var.sqrt();
            (sd, sd / (n as f64).sqrt())
        } else {
            (0.0, 0.0)
        };
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Summary {
            n,
            mean,
            std_dev,
            std_err,
            min,
            max,
        }
    }

    /// Format as the paper does: `mean±err` with one decimal place each,
    /// e.g. `59.1±2.3`.
    pub fn paper_format(&self) -> String {
        format!("{:.1}±{:.1}", self.mean, self.std_err)
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.paper_format())
    }
}

/// Pool several per-cell summaries into an "Overall" row/column value as the
/// paper does: the overall mean is the mean of cell means, and the overall
/// standard error is the standard error of those cell means.
pub fn pool_summaries(cells: &[Summary]) -> Summary {
    let means: Vec<f64> = cells.iter().map(|s| s.mean).collect();
    Summary::from_samples(&means)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_empty_is_zero() {
        let s = Summary::from_samples(&[]);
        assert_eq!(s.n, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.std_err, 0.0);
    }

    #[test]
    fn summary_of_single_sample() {
        let s = Summary::from_samples(&[42.0]);
        assert_eq!(s.n, 1);
        assert_eq!(s.mean, 42.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.std_err, 0.0);
        assert_eq!(s.min, 42.0);
        assert_eq!(s.max, 42.0);
    }

    #[test]
    fn summary_known_values() {
        let s = Summary::from_samples(&[2.0, 4.0, 4.0, 4.0, 6.0]);
        assert!((s.mean - 4.0).abs() < 1e-12);
        // sample variance = (4+0+0+0+4)/4 = 2
        assert!((s.std_dev - 2f64.sqrt()).abs() < 1e-12);
        assert!((s.std_err - 2f64.sqrt() / 5f64.sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 6.0);
    }

    #[test]
    fn paper_format_one_decimal() {
        let s = Summary::from_samples(&[59.05, 59.15]);
        assert_eq!(s.paper_format(), "59.1±0.1");
        assert_eq!(format!("{s}"), "59.1±0.1");
    }

    #[test]
    fn pool_summaries_averages_cell_means() {
        let a = Summary::from_samples(&[10.0, 10.0]);
        let b = Summary::from_samples(&[20.0, 20.0]);
        let pooled = pool_summaries(&[a, b]);
        assert!((pooled.mean - 15.0).abs() < 1e-12);
        assert_eq!(pooled.n, 2);
    }
}
