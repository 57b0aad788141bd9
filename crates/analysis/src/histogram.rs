//! Trained-weight distribution histograms (paper Figure 6).
//!
//! A feature whose weights pile up at the saturation points carries strong
//! (positive or negative) signal; one whose weights stay near zero learned
//! nothing and was rejected from the design.

use ppf::{WEIGHT_MAX, WEIGHT_MIN};

/// Histogram of one weight table's values, one bucket per weight value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WeightHistogram {
    counts: Vec<u64>,
}

impl WeightHistogram {
    /// Builds the histogram of one feature's weights (a slice of the
    /// perceptron's flat arena, see [`ppf::Perceptron::feature_weights`]).
    ///
    /// # Panics
    ///
    /// Panics if any weight is outside the 5-bit range (the perceptron's
    /// saturating updates guarantee it never is).
    pub fn of(weights: &[i8]) -> Self {
        let span = (i32::from(WEIGHT_MAX) - i32::from(WEIGHT_MIN) + 1) as usize;
        let mut counts = vec![0u64; span];
        for &w in weights {
            counts[usize::try_from(i32::from(w) - i32::from(WEIGHT_MIN)).expect("5-bit weight")] += 1;
        }
        Self { counts }
    }

    /// Accumulates another histogram into this one (the paper concatenates
    /// weights across all trace executions before plotting Fig. 6).
    ///
    /// # Panics
    ///
    /// Panics if the bucket counts differ (they cannot, for 5-bit weights).
    pub fn merge(&mut self, other: &WeightHistogram) {
        assert_eq!(self.counts.len(), other.counts.len(), "bucket mismatch");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    /// Count of weights equal to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `value` is outside the 5-bit weight range.
    pub fn count(&self, value: i8) -> u64 {
        assert!((WEIGHT_MIN..=WEIGHT_MAX).contains(&value), "weight out of range");
        self.counts[(i32::from(value) - i32::from(WEIGHT_MIN)) as usize]
    }

    /// Total weights counted.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Fraction of weights with |w| ≤ `band` — the "settled near zero" mass
    /// the paper uses to reject uninformative features.
    pub fn near_zero_fraction(&self, band: i8) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let near: u64 = (-band..=band).map(|v| self.count(v)).sum();
        near as f64 / total as f64
    }

    /// Fraction of weights at either saturation point.
    pub fn saturated_fraction(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        (self.count(WEIGHT_MIN) + self.count(WEIGHT_MAX)) as f64 / total as f64
    }

    /// Renders the histogram as a horizontal ASCII bar chart (the Fig. 6
    /// panels), skipping the zero bucket's dominance by scaling to the
    /// largest non-zero-value bucket.
    pub fn render(&self, title: &str, width: usize) -> String {
        let mut s = format!("{title}\n");
        let max = self.counts.iter().copied().max().unwrap_or(1).max(1);
        for v in WEIGHT_MIN..=WEIGHT_MAX {
            let c = self.count(v);
            let bar = (c as usize * width).div_ceil(max as usize);
            s.push_str(&format!("{v:>4} | {:<width$} {c}\n", "#".repeat(bar)));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates() {
        let mut a = WeightHistogram::of(&[5]);
        let b = WeightHistogram::of(&[5, -2]);
        a.merge(&b);
        assert_eq!(a.count(5), 2);
        assert_eq!(a.count(-2), 1);
    }

    #[test]
    fn counts_values() {
        let h = WeightHistogram::of(&[5, 5, -3, 0]);
        assert_eq!(h.count(5), 2);
        assert_eq!(h.count(-3), 1);
        assert_eq!(h.count(0), 1);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn near_zero_fraction_detects_flat_tables() {
        let h = WeightHistogram::of(&[0; 64]);
        assert_eq!(h.near_zero_fraction(1), 1.0);
    }

    #[test]
    fn saturation_detected() {
        let h = WeightHistogram::of(&[WEIGHT_MAX, WEIGHT_MIN, 0, 0]);
        assert_eq!(h.saturated_fraction(), 0.5);
    }

    #[test]
    fn render_contains_all_buckets() {
        let h = WeightHistogram::of(&[1, -1]);
        let out = h.render("demo", 20);
        assert!(out.contains("demo"));
        assert!(out.contains(" -16 |"));
        assert!(out.contains("  15 |"));
    }

    #[test]
    #[should_panic(expected = "weight out of range")]
    fn out_of_range_count_panics() {
        WeightHistogram::of(&[0; 4]).count(16);
    }
}
