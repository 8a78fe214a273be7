//! Diagnostic resolution metrics.

use std::fmt;

/// Accumulates the paper's diagnostic resolution metric over a fault
/// campaign:
///
/// ```text
/// DR = (Σ_f |candidates(f)| − Σ_f |actual(f)|) / Σ_f |actual(f)|
/// ```
///
/// `DR = 0` is ideal (the candidate set equals the actual failing
/// cells); larger values mean more suspects per true failing cell.
///
/// # Examples
///
/// ```
/// use scan_diagnosis::DrAccumulator;
///
/// let mut acc = DrAccumulator::new();
/// acc.add(10, 4); // fault 1: 10 candidates, 4 actual failing cells
/// acc.add(6, 4);  // fault 2
/// assert!((acc.dr() - 1.0).abs() < 1e-9); // (16 − 8) / 8
/// ```
#[derive(Clone, Copy, Default, PartialEq, Debug)]
pub struct DrAccumulator {
    candidates: u64,
    actual: u64,
    faults: usize,
}

impl DrAccumulator {
    /// An empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        DrAccumulator::default()
    }

    /// Records one fault's diagnosis outcome.
    pub fn add(&mut self, candidates: usize, actual: usize) {
        self.candidates += candidates as u64;
        self.actual += actual as u64;
        self.faults += 1;
    }

    /// Number of faults accumulated.
    #[must_use]
    pub fn num_faults(&self) -> usize {
        self.faults
    }

    /// The diagnostic resolution. Returns `0.0` for an empty
    /// accumulator (no faults, no misdiagnosis).
    #[must_use]
    pub fn dr(&self) -> f64 {
        if self.actual == 0 {
            return 0.0;
        }
        (self.candidates as f64 - self.actual as f64) / self.actual as f64
    }

    /// Mean candidates per fault.
    #[must_use]
    pub fn mean_candidates(&self) -> f64 {
        if self.faults == 0 {
            0.0
        } else {
            self.candidates as f64 / self.faults as f64
        }
    }

    /// Mean actual failing cells per fault.
    #[must_use]
    pub fn mean_actual(&self) -> f64 {
        if self.faults == 0 {
            0.0
        } else {
            self.actual as f64 / self.faults as f64
        }
    }
}

impl fmt::Display for DrAccumulator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DR {:.3} over {} faults ({} candidates / {} actual)",
            self.dr(),
            self.faults,
            self.candidates,
            self.actual
        )
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact-value checks on deterministic math
mod tests {
    use super::*;

    #[test]
    fn perfect_diagnosis_is_zero() {
        let mut acc = DrAccumulator::new();
        acc.add(4, 4);
        acc.add(7, 7);
        assert_eq!(acc.dr(), 0.0);
    }

    #[test]
    fn empty_accumulator_is_zero() {
        assert_eq!(DrAccumulator::new().dr(), 0.0);
    }

    #[test]
    fn formula_matches_paper() {
        let mut acc = DrAccumulator::new();
        acc.add(30, 10);
        acc.add(10, 10);
        // (40 − 20) / 20 = 1.0
        assert!((acc.dr() - 1.0).abs() < 1e-12);
        assert_eq!(acc.num_faults(), 2);
        assert_eq!(
            acc.to_string(),
            "DR 1.000 over 2 faults (40 candidates / 20 actual)"
        );
    }

    #[test]
    fn means() {
        let mut acc = DrAccumulator::new();
        acc.add(8, 2);
        acc.add(4, 4);
        assert!((acc.mean_candidates() - 6.0).abs() < 1e-12);
        assert!((acc.mean_actual() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn display_mentions_fault_count() {
        let mut acc = DrAccumulator::new();
        acc.add(5, 1);
        assert!(acc.to_string().contains("1 faults"));
    }
}
