//! Summary statistics with the benchmark's percentile rule.
//!
//! A percentile is reported only when at least [`MIN_BEYOND`] samples lie
//! beyond it, so a tail figure always rests on enough observations to
//! repeat. Quantiles use the nearest-rank definition on sorted samples.

/// Samples that must lie beyond a quantile before it may be reported.
pub const MIN_BEYOND: usize = 10;

/// Tail quantiles tried, highest first, by [`Summary::tail`].
pub const TAIL_QUANTILES: [f64; 4] = [0.99, 0.9, 0.75, 0.5];

/// Number of samples strictly beyond quantile `q` of `n` samples under the
/// nearest-rank definition.
pub fn beyond(n: usize, q: f64) -> usize {
    n - nearest_rank(n, q)
}

/// 1-based nearest rank of quantile `q` among `n` sorted samples.
fn nearest_rank(n: usize, q: f64) -> usize {
    ((q * n as f64) - 1e-9).ceil().clamp(1.0, n as f64) as usize
}

/// Whether quantile `q` of `n` samples may be reported.
pub fn reportable(n: usize, q: f64) -> bool {
    n > 0 && beyond(n, q) >= MIN_BEYOND
}

/// Sorted samples of one measured quantity.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    sorted: Vec<f64>,
}

impl Summary {
    pub fn new(mut samples: Vec<f64>) -> Summary {
        samples.retain(|x| x.is_finite());
        samples.sort_by(f64::total_cmp);
        Summary { sorted: samples }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    pub fn mean(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// Nearest-rank quantile, ignoring the reporting rule (for medians of
    /// a handful of set-ups, where the sample count is stated instead).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        self.sorted[nearest_rank(self.sorted.len(), q) - 1]
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// The highest of [`TAIL_QUANTILES`] the rule allows, with its value.
    /// With too few samples for even the median it falls back to the
    /// maximum and reports quantile 1.0, so callers always get a number
    /// and the provenance says what it is.
    pub fn tail(&self) -> (f64, f64) {
        TAIL_QUANTILES
            .iter()
            .find(|&&q| reportable(self.len(), q))
            .map(|&q| (q, self.quantile(q)))
            .unwrap_or((1.0, self.quantile(1.0)))
    }
}

/// Summaries of `(offset, value)` samples cut into consecutive windows
/// of `window` seconds, starting at offset 0; empty windows drop out.
///
/// A run's end-to-end figure is its best window: the host is shared, and
/// its co-tenants slow everything on it by up to 1.9x for ten to thirty
/// seconds at a time, so only the fastest stretch of a run repeats from
/// run to run. Short windows give every run many chances to hold one.
pub fn windowed(samples: &[(f64, f64)], window: f64) -> Vec<Summary> {
    assert!(window > 0.0, "window must be positive");
    let mut cut: Vec<Vec<f64>> = Vec::new();
    for &(at, value) in samples {
        let w = (at / window).max(0.0) as usize;
        if cut.len() <= w {
            cut.resize(w + 1, Vec::new());
        }
        cut[w].push(value);
    }
    cut.into_iter()
        .filter(|w| !w.is_empty())
        .map(Summary::new)
        .collect()
}

/// The smallest of `values`, or 0 when there are none.
pub fn lowest(values: impl Iterator<Item = f64>) -> f64 {
    values
        .fold(None, |m: Option<f64>, v| Some(m.map_or(v, |m| m.min(v))))
        .unwrap_or(0.0)
}

/// The largest of `values`, or 0 when there are none.
pub fn highest(values: impl Iterator<Item = f64>) -> f64 {
    values
        .fold(None, |m: Option<f64>, v| Some(m.map_or(v, |m| m.max(v))))
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert!(!reportable(999, 0.99));
        assert!(reportable(1000, 0.99));
        assert_eq!(beyond(1000, 0.99), 10);
        assert!(!reportable(99, 0.9));
        assert!(reportable(100, 0.9));
        assert!(!reportable(19, 0.5));
        assert!(reportable(20, 0.5));
        assert!(!reportable(0, 0.5));
    }

    #[test]
    fn nearest_rank_quantiles() {
        let s = Summary::new((1..=100).map(f64::from).collect());
        assert_eq!(s.median(), 50.0);
        assert_eq!(s.quantile(0.9), 90.0);
        assert_eq!(s.quantile(1.0), 100.0);
        assert_eq!(s.quantile(0.0), 1.0);
        assert!(!reportable(s.len(), 0.99));
        assert_eq!(s.tail(), (0.9, 90.0));
    }

    #[test]
    fn tail_picks_the_highest_reportable_quantile() {
        let many = Summary::new((0..1000).map(f64::from).collect());
        assert_eq!(many.tail().0, 0.99);
        let some = Summary::new((0..40).map(f64::from).collect());
        assert_eq!(some.tail(), (0.75, 29.0));
        let few = Summary::new(vec![3.0, 1.0, 2.0]);
        assert_eq!(few.tail(), (1.0, 3.0));
    }

    #[test]
    fn windows_cut_a_run_by_offset_and_the_best_one_wins() {
        // Ten seconds of one sample per 100 ms; a burst slows 2-6 s.
        let samples: Vec<(f64, f64)> = (0..100)
            .map(|i| {
                let at = i as f64 / 10.0;
                (at, if (2.0..6.0).contains(&at) { 3.0 } else { 1.0 })
            })
            .collect();
        let w = windowed(&samples, 2.0);
        assert_eq!(w.len(), 5);
        assert!(w.iter().all(|s| s.len() == 20));
        assert_eq!(lowest(w.iter().map(Summary::median)), 1.0);
        assert_eq!(highest(w.iter().map(Summary::median)), 3.0);
        // Windows run past the end; empty ones drop out.
        let late = windowed(&[(0.1, 1.0), (12.0, 2.0)], 2.0);
        assert_eq!(late.len(), 2);
        assert_eq!(late[1].median(), 2.0);
        assert_eq!(lowest(std::iter::empty()), 0.0);
    }

    #[test]
    fn non_finite_samples_are_dropped() {
        let s = Summary::new(vec![f64::NAN, 2.0, f64::INFINITY, 1.0]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.mean(), 1.5);
    }
}
