//! Binary classification metrics.
//!
//! The paper measures AIDE's effectiveness as the F-measure of the final
//! decision tree over the *entire* data space (Eq. 1, §2.3): precision
//! protects the user from irrelevant objects in the predicted query's
//! result, recall protects against missing relevant ones.

/// Binary confusion matrix (relevant = positive class).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConfusionMatrix {
    /// Predicted relevant, actually relevant.
    pub tp: u64,
    /// Predicted relevant, actually irrelevant.
    pub fp: u64,
    /// Predicted irrelevant, actually relevant.
    pub fn_: u64,
    /// Predicted irrelevant, actually irrelevant.
    pub tn: u64,
}

impl ConfusionMatrix {
    /// Builds a matrix from `(predicted, actual)` pairs.
    pub fn from_pairs<I: IntoIterator<Item = (bool, bool)>>(pairs: I) -> Self {
        let mut m = ConfusionMatrix::default();
        for (predicted, actual) in pairs {
            m.record(predicted, actual);
        }
        m
    }

    /// Records one observation.
    #[inline]
    pub fn record(&mut self, predicted: bool, actual: bool) {
        self.record_n(predicted, actual, 1);
    }

    /// Records `n` observations that share one prediction and one truth
    /// value.
    #[inline]
    pub fn record_n(&mut self, predicted: bool, actual: bool, n: u64) {
        match (predicted, actual) {
            (true, true) => self.tp += n,
            (true, false) => self.fp += n,
            (false, true) => self.fn_ += n,
            (false, false) => self.tn += n,
        }
    }

    /// Adds another matrix's counts. Counts are integers, so merging
    /// per-chunk matrices is exact under any work decomposition — the
    /// property the parallel evaluator relies on.
    pub fn merge(&mut self, other: &ConfusionMatrix) {
        self.tp += other.tp;
        self.fp += other.fp;
        self.fn_ += other.fn_;
        self.tn += other.tn;
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.tp + self.fp + self.fn_ + self.tn
    }

    /// `tp / (tp + fp)`; 0 when nothing was predicted relevant.
    pub fn precision(&self) -> f64 {
        ratio(self.tp, self.tp + self.fp)
    }

    /// `tp / (tp + fn)`; 0 when nothing is actually relevant.
    pub fn recall(&self) -> f64 {
        ratio(self.tp, self.tp + self.fn_)
    }

    /// Harmonic mean of precision and recall (the paper's accuracy
    /// metric); 0 when either is 0.
    pub fn f_measure(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// Fraction of correct predictions; 0 when empty.
    pub fn accuracy(&self) -> f64 {
        ratio(self.tp + self.tn, self.total())
    }
}

#[inline]
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn textbook_values() {
        // tp=8, fp=2, fn=4, tn=6.
        let mut m = ConfusionMatrix::default();
        for _ in 0..8 {
            m.record(true, true);
        }
        for _ in 0..2 {
            m.record(true, false);
        }
        for _ in 0..4 {
            m.record(false, true);
        }
        for _ in 0..6 {
            m.record(false, false);
        }
        assert_eq!(m.total(), 20);
        assert!((m.precision() - 0.8).abs() < 1e-12);
        assert!((m.recall() - 8.0 / 12.0).abs() < 1e-12);
        let f = 2.0 * 0.8 * (8.0 / 12.0) / (0.8 + 8.0 / 12.0);
        assert!((m.f_measure() - f).abs() < 1e-12);
        assert!((m.accuracy() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn degenerate_cases_are_zero_not_nan() {
        let empty = ConfusionMatrix::default();
        assert_eq!(empty.precision(), 0.0);
        assert_eq!(empty.recall(), 0.0);
        assert_eq!(empty.f_measure(), 0.0);
        assert_eq!(empty.accuracy(), 0.0);

        // Nothing predicted relevant: precision undefined → 0, F → 0.
        let m = ConfusionMatrix::from_pairs([(false, true), (false, false)]);
        assert_eq!(m.precision(), 0.0);
        assert_eq!(m.f_measure(), 0.0);
    }

    #[test]
    fn perfect_classifier_scores_one() {
        let m = ConfusionMatrix::from_pairs([(true, true), (false, false), (true, true)]);
        assert_eq!(m.precision(), 1.0);
        assert_eq!(m.recall(), 1.0);
        assert_eq!(m.f_measure(), 1.0);
        assert_eq!(m.accuracy(), 1.0);
    }

    #[test]
    fn from_pairs_matches_manual_records() {
        let pairs = [(true, false), (true, true), (false, true)];
        let a = ConfusionMatrix::from_pairs(pairs);
        let mut b = ConfusionMatrix::default();
        for (p, y) in pairs {
            b.record(p, y);
        }
        assert_eq!(a, b);
    }
}
